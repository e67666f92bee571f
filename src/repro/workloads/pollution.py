"""Brasov pollution trace synthesizer (CityBench-style).

The paper's second real-world case study uses the Brasov (Romania)
pollution dataset from CityBench: sensors reporting particulate matter,
carbon monoxide, sulfur dioxide and nitrogen dioxide every 5 minutes,
August–October 2014. The query is *"total pollution value per
pollutant per time window"*.

The dataset is not bundled here, so this module synthesizes readings
with the same structure: one sub-stream per pollutant, values following
a slowly-varying AR(1) process around typical urban baselines. The key
property the paper calls out — pollution values are *more stable* than
taxi fares, so the accuracy-loss curve sits lower (Fig. 11(a)) — is
preserved by the low innovation variance.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.source import SubstreamGenerator

__all__ = ["POLLUTANTS", "PollutantSubstream", "pollutant_generators"]

#: Pollutant baselines (index-style units) and AR(1) innovation scales.
POLLUTANTS: dict[str, tuple[float, float]] = {
    "pm": (55.0, 2.0),
    "co": (40.0, 1.5),
    "so2": (25.0, 1.0),
    "no2": (35.0, 1.2),
}


class PollutantSubstream(SubstreamGenerator):
    """Item generator for one pollutant's sensor feed.

    Implements the :class:`~repro.workloads.source.ItemGenerator`
    protocol with a self-contained AR(1) level per instance, driven by
    the caller's entropy. Values stay close to the pollutant baseline
    (low innovation variance), which is the stability property the
    paper notes for this dataset.
    """

    def __init__(self, pollutant: str, item_bytes: int = 64) -> None:
        if pollutant not in POLLUTANTS:
            raise WorkloadError(
                f"unknown pollutant {pollutant!r}; "
                f"choose from {sorted(POLLUTANTS)}"
            )
        self.pollutant = pollutant
        self.name = f"pollution/{pollutant}"
        self.item_bytes = item_bytes
        self._baseline, self._scale = POLLUTANTS[pollutant]
        self._level = self._baseline

    def _values(self, count: int, gen) -> list[float]:
        """The clamped AR(1) recurrence over one column of innovations.

        Clamping at zero makes the level inherently sequential, so only
        the innovations are drawn as a vector.
        """
        baseline = self._baseline
        level = self._level
        readings = []
        for innovation in gen.normal(0.0, self._scale, count).tolist():
            level = max(0.0, baseline + 0.95 * (level - baseline) + innovation)
            readings.append(round(level, 2))
        self._level = level
        return readings


def pollutant_generators() -> dict[str, PollutantSubstream]:
    """One per-pollutant generator per sub-stream, keyed by name."""
    return {
        f"pollution/{pollutant}": PollutantSubstream(pollutant)
        for pollutant in POLLUTANTS
    }
