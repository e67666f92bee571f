"""Arrival-rate schedules, including the paper's Settings 1-3 (§V-D).

A rate schedule maps each sub-stream to items/second. The fluctuating-
rate experiment (Fig. 10(a)(b)) uses three settings over sub-streams
A, B, C, D:

* Setting1: (50k : 25k : 12.5k : 625)
* Setting2: (25k : 25k : 25k : 25k)
* Setting3: (625 : 12.5k : 25k : 50k)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.errors import WorkloadError

__all__ = ["RateSchedule", "paper_rate_settings"]


@dataclass(frozen=True)
class RateSchedule:
    """Per-sub-stream arrival rates (items/second).

    Attributes:
        name: Human-readable label ("Setting1"...).
        rates: Sub-stream name -> items per second.
    """

    name: str
    rates: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.rates:
            raise WorkloadError("rate schedule needs at least one sub-stream")
        for substream, rate in self.rates.items():
            if not 0 <= rate < math.inf:
                raise WorkloadError(
                    f"rate for {substream!r} must be finite and >= 0, "
                    f"got {rate}"
                )

    @property
    def total_rate(self) -> float:
        """Aggregate items/second across sub-streams."""
        return sum(self.rates.values())

    def scaled(self, factor: float) -> "RateSchedule":
        """A copy with every rate multiplied by ``factor``."""
        if not 0 < factor < math.inf:
            raise WorkloadError(
                f"scale factor must be positive and finite, got {factor}"
            )
        return RateSchedule(
            f"{self.name}x{factor:g}",
            {substream: rate * factor for substream, rate in self.rates.items()},
        )

    def split(self, shards: int) -> "list[RateSchedule]":
        """Equal per-shard shares of this schedule (§III-E sharding).

        Every sub-stream's rate is divided evenly across ``shards``
        schedules, matching the paper's assumption that each worker
        node handles an equal portion of every sub-stream's items. The
        shares sum back to the original schedule exactly (one division
        per rate, identical across shards), so a sharded run offers
        the same aggregate load as the single-process run it shards.
        """
        if shards <= 0:
            raise WorkloadError(f"shard count must be >= 1, got {shards}")
        if shards == 1:
            return [self]
        return [
            RateSchedule(
                f"{self.name}[shard {index + 1}/{shards}]",
                {s: rate / shards for s, rate in self.rates.items()},
            )
            for index in range(shards)
        ]


def paper_rate_settings(scale: float = 1.0) -> list[RateSchedule]:
    """The three fluctuating-rate settings of §V-D.

    ``scale`` shrinks the absolute rates for laptop-sized runs while
    preserving the ratios that drive the experiment's shape.
    """
    settings = [
        RateSchedule(
            "Setting1", {"A": 50_000.0, "B": 25_000.0, "C": 12_500.0, "D": 625.0}
        ),
        RateSchedule(
            "Setting2", {"A": 25_000.0, "B": 25_000.0, "C": 25_000.0, "D": 25_000.0}
        ),
        RateSchedule(
            "Setting3", {"A": 625.0, "B": 12_500.0, "C": 25_000.0, "D": 50_000.0}
        ),
    ]
    if scale == 1.0:
        return settings
    return [schedule.scaled(scale) for schedule in settings]
