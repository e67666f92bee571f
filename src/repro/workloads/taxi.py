"""NYC taxi trace synthesizer (DEBS 2015 Grand Challenge schema).

The paper's first real-world case study replays the January 2013 NYC
taxi ride dataset and asks *"what is the total payment for taxi fares
in NYC at each time window?"*. The raw dataset is not redistributable
here, so this module synthesizes a trace with the same schema
(medallion, license, pickup/dropoff time, trip distance, fare, tip,
total amount) and empirically-shaped marginals:

* trip distance ~ lognormal (median ≈ 1.7 miles, heavy right tail);
* fare from NYC's metered formula ($2.50 flagfall + $2.50/mile);
* tip ~ 0–30 % of fare, zero-inflated (cash rides);
* medallions partitioned into boroughs that act as the sub-streams
  (each borough's sensor feed is one stratum with its own rate).

Only the marginal distribution of ``total_amount`` and the arrival
process matter to the query, so this preserves the experiment's
behaviour (accuracy-loss curve shape, Fig. 11(a)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.items import StreamItem
from repro.errors import WorkloadError
from repro.workloads.source import SubstreamGenerator

__all__ = ["TaxiRide", "TaxiTraceSynthesizer", "BoroughSubstream", "BOROUGHS"]

#: Borough feeds act as sub-streams, with ride-volume shares loosely
#: matching Manhattan's dominance in the 2013 data.
BOROUGHS: dict[str, float] = {
    "manhattan": 0.72,
    "brooklyn": 0.12,
    "queens": 0.09,
    "bronx": 0.04,
    "staten_island": 0.03,
}


@dataclass(frozen=True, slots=True)
class TaxiRide:
    """One ride record in the DEBS 2015 shape."""

    medallion: str
    hack_license: str
    pickup_datetime: float
    dropoff_datetime: float
    trip_distance: float
    fare_amount: float
    tip_amount: float
    total_amount: float
    borough: str


class TaxiTraceSynthesizer:
    """Generates ride streams grouped by borough sub-streams."""

    FLAGFALL = 2.50
    PER_MILE = 2.50

    def __init__(self, seed: int = 2013, medallions: int = 1000) -> None:
        if medallions <= 0:
            raise WorkloadError(f"medallions must be >= 1, got {medallions}")
        self._rng = random.Random(seed)
        self._medallions = [f"MEDALLION-{i:05d}" for i in range(medallions)]
        boroughs = list(BOROUGHS)
        self._medallion_borough = {
            medallion: self._rng.choices(
                boroughs, weights=[BOROUGHS[b] for b in boroughs]
            )[0]
            for medallion in self._medallions
        }

    def ride(self, pickup_time: float) -> TaxiRide:
        """Synthesize one ride starting at ``pickup_time``."""
        rng = self._rng
        medallion = rng.choice(self._medallions)
        borough = self._medallion_borough[medallion]
        distance = min(50.0, rng.lognormvariate(0.55, 0.85))
        duration = 120.0 + distance * rng.uniform(120.0, 240.0)
        fare = self.FLAGFALL + self.PER_MILE * distance
        surcharges = rng.choice([0.0, 0.5, 1.0])
        tip = 0.0 if rng.random() < 0.45 else fare * rng.uniform(0.05, 0.30)
        total = round(fare + surcharges + tip, 2)
        return TaxiRide(
            medallion=medallion,
            hack_license=f"LIC-{rng.randrange(10_000):04d}",
            pickup_datetime=pickup_time,
            dropoff_datetime=pickup_time + duration,
            trip_distance=round(distance, 2),
            fare_amount=round(fare, 2),
            tip_amount=round(tip, 2),
            total_amount=total,
            borough=borough,
        )

    def generate_items(
        self, count: int, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        """``count`` rides as stream items.

        The item value is the ride's ``total_amount`` (the query
        aggregates payments) and the sub-stream is the borough feed.
        """
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        items: list[StreamItem] = []
        for _ in range(count):
            ride = self.ride(emitted_at)
            items.append(
                StreamItem(
                    substream=f"taxi/{ride.borough}",
                    value=ride.total_amount,
                    emitted_at=emitted_at,
                    size_bytes=180,  # CSV row size of the DEBS schema
                )
            )
        return items

    @staticmethod
    def borough_generators() -> dict[str, "BoroughSubstream"]:
        """One per-borough generator per sub-stream, keyed by name.

        This is the map the statistical/deployment runners expect:
        sub-stream names match the ``taxi/<borough>`` tags items carry.
        """
        return {
            f"taxi/{borough}": BoroughSubstream(borough)
            for borough in BOROUGHS
        }

    def generate_rides(self, count: int, start_time: float = 0.0,
                       rate_per_second: float = 100.0) -> list[TaxiRide]:
        """``count`` full ride records with Poisson-ish spacing."""
        if rate_per_second <= 0:
            raise WorkloadError(
                f"rate must be positive, got {rate_per_second}"
            )
        rides = []
        t = start_time
        for _ in range(count):
            t += self._rng.expovariate(rate_per_second)
            rides.append(self.ride(t))
        return rides


class BoroughSubstream(SubstreamGenerator):
    """Item generator for one borough's ride feed.

    Implements the :class:`~repro.workloads.source.ItemGenerator`
    protocol: values are synthesized ride ``total_amount`` figures with
    the same marginals as :class:`TaxiTraceSynthesizer`, drawn from the
    caller-supplied entropy so runs stay reproducible.
    """

    FLAGFALL = TaxiTraceSynthesizer.FLAGFALL
    PER_MILE = TaxiTraceSynthesizer.PER_MILE

    def __init__(self, borough: str, item_bytes: int = 180) -> None:
        if borough not in BOROUGHS:
            raise WorkloadError(
                f"unknown borough {borough!r}; choose from {sorted(BOROUGHS)}"
            )
        self.borough = borough
        self.name = f"taxi/{borough}"
        self.item_bytes = item_bytes

    def _values(self, count: int, gen):
        """:meth:`TaxiTraceSynthesizer.ride`'s ``total_amount``
        marginals, one column per term."""
        distance = gen.lognormal(0.55, 0.85, count).clip(max=50.0)
        fare = self.FLAGFALL + self.PER_MILE * distance
        surcharges = gen.choice([0.0, 0.5, 1.0], count)
        tipped = gen.random(count) >= 0.45
        tip = tipped * (fare * gen.uniform(0.05, 0.30, count))
        return (fare + surcharges + tip).round(2)
