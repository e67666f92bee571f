"""Simple random sampling (SRS) baseline.

The paper's baseline (implemented in its prototype as a user-defined
Kafka processor) is the *coin-flip* sampling algorithm of Jermaine et
al. (DBO): each arriving item is kept independently with probability
equal to the sampling fraction, regardless of which sub-stream it came
from. SRS therefore under-represents small-but-important sub-streams,
which is exactly the failure mode ApproxIoT's stratification fixes.
"""

from __future__ import annotations

import random
from typing import Generic, Iterable, Sequence, TypeVar

import numpy as _np

from repro.core.fastpath import make_generator
from repro.errors import SamplingError

__all__ = ["CoinFlipSampler", "srs_sample"]

T = TypeVar("T")


class CoinFlipSampler(Generic[T]):
    """Bernoulli (coin-flip) sampler with a fixed keep probability.

    Unlike reservoir sampling, the coin-flip sampler needs no window or
    buffer: each item is decided on arrival. That is why, in the
    paper's Figure 9, the SRS system's latency does not grow with the
    window size while ApproxIoT's does.

    Whole batches are decided in one vector draw from ``gen`` — the
    engine passes its pipeline's Generator — or, standalone, from one
    seeded once from ``rng`` (the contract in
    :mod:`repro.core.fastpath`).
    """

    def __init__(
        self,
        fraction: float,
        rng: random.Random | None = None,
        *,
        gen=None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise SamplingError(
                f"sampling fraction must be in (0, 1], got {fraction}"
            )
        self._fraction = float(fraction)
        if gen is None:
            gen = make_generator(rng or random.Random())
        self._gen = gen
        self._seen = 0
        self._kept = 0

    @property
    def fraction(self) -> float:
        """The configured keep probability."""
        return self._fraction

    @property
    def seen(self) -> int:
        """Number of items offered so far."""
        return self._seen

    @property
    def kept(self) -> int:
        """Number of items kept so far."""
        return self._kept

    @property
    def weight(self) -> float:
        """Inverse-probability weight for kept items (1 / fraction)."""
        return 1.0 / self._fraction

    def offer(self, item: T) -> T | None:
        """Offer an item; return it if kept, ``None`` if dropped."""
        return item if self.decisions(1)[0] else None

    def filter(self, items: Iterable[T]) -> list[T]:
        """Keep each item of an iterable independently."""
        items = items if isinstance(items, Sequence) else list(items)
        mask = self.decisions(len(items))
        return [item for item, keep in zip(items, mask) if keep]

    def decisions(self, count: int) -> Sequence[bool]:
        """Keep/drop decisions for ``count`` records, in arrival order.

        The one place a coin is flipped: :meth:`offer` and
        :meth:`filter` are this mask applied to items, and the engines
        apply it to a column. One draw returns a boolean array.
        """
        if count < 0:
            raise SamplingError(f"count must be >= 0, got {count}")
        mask = self._gen.random(count) < self._fraction
        self._seen += count
        self._kept += int(_np.count_nonzero(mask))
        return mask

    def merge_counters(self, other: "CoinFlipSampler") -> None:
        """Absorb another sampler's counters (sharded execution merge).

        Coin-flip sampling is trivially mergeable: each record's
        keep/drop decision is independent, so the union of per-shard
        SRS samples is an SRS sample of the union and the root-side
        state to combine is just the arrival/kept counters. Both
        samplers must share the keep probability (otherwise the merged
        Horvitz-Thompson weight ``1 / fraction`` would be wrong for
        one side's records).
        """
        if other._fraction != self._fraction:
            raise SamplingError(
                f"cannot merge coin-flip samplers with different fractions "
                f"({self._fraction} vs {other._fraction})"
            )
        self._seen += other._seen
        self._kept += other._kept

    def reset_counters(self) -> None:
        """Zero the seen/kept counters (keep probability unchanged)."""
        self._seen = 0
        self._kept = 0


def srs_sample(
    items: Sequence[T], fraction: float, rng: random.Random | None = None
) -> list[T]:
    """One-shot coin-flip sample of a sequence at the given fraction."""
    return CoinFlipSampler[T](fraction, rng).filter(items)


def horvitz_thompson_sum(values: Sequence[float], fraction: float) -> float:
    """Estimate a population sum from an SRS sample.

    Each sampled value is scaled by the inverse of its inclusion
    probability; this is how the SRS baseline system in the paper
    recreates the total from its sample. Under extreme skew this
    estimator has huge variance (Figure 10(c)) because the rare,
    high-value sub-stream is either missed entirely (underestimate) or
    scaled up by 1/fraction (overestimate).
    """
    if not 0.0 < fraction <= 1.0:
        raise SamplingError(f"sampling fraction must be in (0, 1], got {fraction}")
    return sum(values) / fraction
