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

import random
from dataclasses import dataclass

from repro.core.items import StreamItem
from repro.errors import WorkloadError
from repro.workloads.source import SubstreamGenerator

__all__ = [
    "POLLUTANTS",
    "PollutantSubstream",
    "PollutionReading",
    "PollutionTraceSynthesizer",
    "pollutant_generators",
]

#: Pollutant baselines (index-style units) and AR(1) innovation scales.
POLLUTANTS: dict[str, tuple[float, float]] = {
    "pm": (55.0, 2.0),
    "co": (40.0, 1.5),
    "so2": (25.0, 1.0),
    "no2": (35.0, 1.2),
}

#: Sensor reporting period in the real dataset (seconds).
REPORT_PERIOD = 300.0


@dataclass(frozen=True, slots=True)
class PollutionReading:
    """One sensor measurement."""

    sensor_id: str
    pollutant: str
    value: float
    timestamp: float


class PollutionTraceSynthesizer:
    """Generates per-pollutant sub-streams from a bank of sensors."""

    def __init__(self, seed: int = 2014, sensors_per_pollutant: int = 25) -> None:
        if sensors_per_pollutant <= 0:
            raise WorkloadError(
                f"need >= 1 sensor per pollutant, got {sensors_per_pollutant}"
            )
        self._rng = random.Random(seed)
        self._sensors: dict[str, list[str]] = {}
        self._levels: dict[str, float] = {}
        for pollutant, (baseline, _scale) in POLLUTANTS.items():
            ids = [
                f"{pollutant}-sensor-{i:03d}"
                for i in range(sensors_per_pollutant)
            ]
            self._sensors[pollutant] = ids
            for sensor_id in ids:
                self._levels[sensor_id] = baseline * self._rng.uniform(0.9, 1.1)

    def _step(self, sensor_id: str, pollutant: str) -> float:
        """Advance one sensor's AR(1) level and return the reading."""
        baseline, scale = POLLUTANTS[pollutant]
        level = self._levels[sensor_id]
        level = baseline + 0.95 * (level - baseline) + self._rng.gauss(0, scale)
        level = max(0.0, level)
        self._levels[sensor_id] = level
        return round(level, 2)

    def readings_at(self, timestamp: float) -> list[PollutionReading]:
        """One reporting round: every sensor reports once."""
        out: list[PollutionReading] = []
        for pollutant, sensor_ids in self._sensors.items():
            for sensor_id in sensor_ids:
                out.append(
                    PollutionReading(
                        sensor_id=sensor_id,
                        pollutant=pollutant,
                        value=self._step(sensor_id, pollutant),
                        timestamp=timestamp,
                    )
                )
        return out

    def generate_items(
        self, count: int, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        """``count`` measurements as stream items.

        Sub-streams are the pollutants (the query sums each pollutant
        per window); values come from the per-sensor AR(1) processes,
        cycling through the sensor bank.
        """
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        items: list[StreamItem] = []
        pollutants = list(POLLUTANTS)
        for index in range(count):
            pollutant = pollutants[index % len(pollutants)]
            sensors = self._sensors[pollutant]
            sensor_id = sensors[(index // len(pollutants)) % len(sensors)]
            items.append(
                StreamItem(
                    substream=f"pollution/{pollutant}",
                    value=self._step(sensor_id, pollutant),
                    emitted_at=emitted_at,
                    size_bytes=64,
                )
            )
        return items


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
