"""NYC taxi payment feeds (DEBS 2015 Grand Challenge marginals).

The paper's first real-world case study replays the January 2013 NYC
taxi ride dataset and asks *"what is the total payment for taxi fares
in NYC at each time window?"*. The raw dataset is not redistributable
here, so this module synthesizes each ride's ``total_amount`` with
empirically-shaped marginals:

* trip distance ~ lognormal (median ≈ 1.7 miles, heavy right tail);
* fare from NYC's metered formula ($2.50 flagfall + $2.50/mile);
* tip ~ 0–30 % of fare, zero-inflated (cash rides);
* boroughs act as the sub-streams (each borough's feed is one
  stratum with its own rate).

Only the marginal distribution of ``total_amount`` and the arrival
process matter to the query, so this preserves the experiment's
behaviour (accuracy-loss curve shape, Fig. 11(a)).
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.source import SubstreamGenerator

__all__ = ["BoroughSubstream", "BOROUGHS", "borough_generators"]

#: Borough feeds act as sub-streams, with ride-volume shares loosely
#: matching Manhattan's dominance in the 2013 data.
BOROUGHS: dict[str, float] = {
    "manhattan": 0.72,
    "brooklyn": 0.12,
    "queens": 0.09,
    "bronx": 0.04,
    "staten_island": 0.03,
}


class BoroughSubstream(SubstreamGenerator):
    """Item generator for one borough's ride feed.

    Implements the :class:`~repro.workloads.source.ItemGenerator`
    protocol: values are synthesized ride ``total_amount`` figures,
    drawn from the caller-supplied entropy so runs stay reproducible.
    """

    FLAGFALL = 2.50
    PER_MILE = 2.50

    def __init__(self, borough: str, item_bytes: int = 180) -> None:
        if borough not in BOROUGHS:
            raise WorkloadError(
                f"unknown borough {borough!r}; choose from {sorted(BOROUGHS)}"
            )
        self.borough = borough
        self.name = f"taxi/{borough}"
        self.item_bytes = item_bytes

    def _values(self, count: int, gen):
        """Metered fare, surcharge and zero-inflated tip, one column
        per term, summed into ``total_amount``."""
        distance = gen.lognormal(0.55, 0.85, count).clip(max=50.0)
        fare = self.FLAGFALL + self.PER_MILE * distance
        surcharges = gen.choice([0.0, 0.5, 1.0], count)
        tipped = gen.random(count) >= 0.45
        tip = tipped * (fare * gen.uniform(0.05, 0.30, count))
        return (fare + surcharges + tip).round(2)


def borough_generators() -> dict[str, BoroughSubstream]:
    """One per-borough generator per sub-stream, keyed by name.

    Sub-stream names match the ``taxi/<borough>`` tags items carry.
    """
    return {
        f"taxi/{borough}": BoroughSubstream(borough) for borough in BOROUGHS
    }
