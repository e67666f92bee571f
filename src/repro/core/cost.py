"""Cost function: translating a query budget into sample sizes.

Algorithm 2 line 3 assumes "a cost function which translates a given
query budget (such as the user-specified latency/throughput/accuracy
guarantees) into the appropriate sample size for a node". The paper's
prototype adjusts these parameters manually and lists an automated cost
function as future work. This module holds the manual path and the
allocation tilt; §IV-B's automated feedback on the fraction is
:class:`repro.system.adaptive.AdaptiveFractionController`.

* :class:`FractionBudget` — the manual path: the analyst fixes a
  sampling fraction and the cost function turns an interval's expected
  arrival count into a reservoir budget.
* :func:`neyman_factors` — the per-stratum tilt of Neyman allocation:
  normalized standard-deviation factors that, multiplied by arrival
  counts, weight ``getSampleSize`` toward the strata dominating the
  stratified variance of Eq. 10-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = [
    "FractionBudget",
    "neyman_factors",
    "require_fraction",
]


def neyman_factors(variances: Mapping[str, float]) -> dict[str, float]:
    """Per-stratum standard-deviation factors, normalized to mean 1.

    Neyman allocation sizes stratum ``i``'s reservoir proportionally to
    ``c_i * s_i`` — arrival count times standard deviation. The counts
    are known exactly at allocation time; the deviations must come from
    feedback (last window's realized sample). This helper turns a map
    of realized per-stratum variances into the ``s_i`` tilt: factors
    proportional to ``sqrt(variance)``, scaled so their mean is 1 (a
    flat map of 1s is the neutral, count-proportional allocation).

    Strata with no variance signal — fewer than two sampled values, or
    a genuinely constant stream — get the smallest positive factor
    rather than zero: absence of evidence must not starve a stratum
    that the one-slot allocation floor would otherwise carry alone.
    An input with no positive variance at all returns all 1s.
    """
    deviations = {}
    for substream, variance in variances.items():
        if variance < 0:
            raise ConfigurationError(
                f"stratum {substream!r} has negative variance {variance}"
            )
        deviations[substream] = math.sqrt(variance)
    positive = [deviation for deviation in deviations.values() if deviation > 0]
    if not positive:
        return {substream: 1.0 for substream in deviations}
    floor = min(positive)
    deviations = {
        substream: deviation if deviation > 0 else floor
        for substream, deviation in deviations.items()
    }
    mean = sum(deviations.values()) / len(deviations)
    return {
        substream: deviation / mean
        for substream, deviation in deviations.items()
    }


def require_fraction(fraction: float) -> float:
    """Return ``fraction`` as a float; reject one outside ``(0, 1]``."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            f"sampling fraction must be in (0, 1], got {fraction}"
        )
    return float(fraction)


@dataclass(slots=True)
class FractionBudget:
    """Fixed sampling fraction — the paper's evaluation configuration.

    Attributes:
        fraction: Fraction of the interval's arrivals to keep.
        floor: Minimum sample size so tiny intervals still sample.
    """

    fraction: float
    floor: int = 1

    def __post_init__(self) -> None:
        self.fraction = require_fraction(self.fraction)
        if self.floor < 1:
            raise ConfigurationError(f"floor must be >= 1, got {self.floor}")

    def sample_size(self, expected_arrivals: int) -> int:
        """Reservoir budget for an interval with the given arrivals."""
        if expected_arrivals < 0:
            raise ConfigurationError(
                f"expected arrivals must be >= 0, got {expected_arrivals}"
            )
        return max(self.floor, int(round(expected_arrivals * self.fraction)))
