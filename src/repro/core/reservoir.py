"""Streaming reservoir sampling primitives.

Implements the classic Algorithm R (Vitter 1985) behind the paper's
``RS(S_i, N_i)`` call in Algorithm 1, plus Vitter's skip-ahead
optimisation (Algorithm X style geometric skipping) that avoids drawing
one random number per item once the stream is much longer than the
reservoir. Both produce a uniform random sample without replacement of
at most ``capacity`` items from a stream of unknown length.

These are the per-item reference forms. The engine samples whole
materialised intervals, so it draws survivor index sets instead with
:func:`~repro.core.fastpath.batch_sample_indices`, which the tests
hold to :class:`ReservoirSampler`'s inclusion distribution.
"""

from __future__ import annotations

import random
from typing import Generic, Iterable, TypeVar

from repro.errors import SamplingError

__all__ = ["ReservoirSampler", "SkipAheadReservoirSampler"]

T = TypeVar("T")


class ReservoirSampler(Generic[T]):
    """Uniform reservoir sampler (Algorithm R).

    Keeps the first ``capacity`` items, then replaces a random slot with
    probability ``capacity / i`` for the ``i``-th item. Every item of the
    stream ends up in the reservoir with equal probability
    ``min(1, capacity / n)`` where ``n`` is the stream length so far.

    The sampler is restartable: :meth:`reset` clears it for the next
    time interval while keeping the configured capacity.
    """

    def __init__(self, capacity: int, rng: random.Random | None = None) -> None:
        if capacity <= 0:
            raise SamplingError(f"reservoir capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rng = rng if rng is not None else random.Random()
        self._reservoir: list[T] = []
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of items the reservoir holds."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Number of items offered since the last reset (``c_i``)."""
        return self._seen

    @property
    def is_saturated(self) -> bool:
        """Whether more items were offered than fit in the reservoir."""
        return self._seen > self._capacity

    def offer(self, item: T) -> None:
        """Offer one item to the reservoir."""
        self._seen += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(item)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self._capacity:
            self._reservoir[slot] = item

    def extend(self, items: Iterable[T]) -> None:
        """Offer each item of an iterable in order."""
        for item in items:
            self.offer(item)

    def sample(self) -> list[T]:
        """Return a copy of the current reservoir contents."""
        return list(self._reservoir)

    def reset(self) -> None:
        """Clear the reservoir and the seen counter for a new interval."""
        self._reservoir.clear()
        self._seen = 0

    def __len__(self) -> int:
        return len(self._reservoir)


class SkipAheadReservoirSampler(ReservoirSampler[T]):
    """Reservoir sampler with geometric skip-ahead.

    Once the reservoir is full, instead of flipping a coin per item, the
    sampler draws the number of items to *skip* before the next
    replacement from the correct distribution. The marginal inclusion
    probabilities are identical to Algorithm R; only the number of RNG
    calls drops from O(n) to O(capacity * log(n / capacity)).

    This exists to ablate the CPU cost of sampling at edge nodes (the
    paper claims the sampling overhead is negligible; the skip-ahead
    variant makes the per-item cost of the hot path measurable).
    """

    def __init__(self, capacity: int, rng: random.Random | None = None) -> None:
        super().__init__(capacity, rng)
        self._skip = 0

    def offer(self, item: T) -> None:
        """Offer one item, spending rng only on accepted candidates.

        Identical inclusion probabilities to Algorithm R's per-item
        coin, but rejected items burn a counter decrement instead of
        an rng draw (see :meth:`_draw_skip`).
        """
        if len(self._reservoir) < self._capacity:
            self._seen += 1
            self._reservoir.append(item)
            if len(self._reservoir) == self._capacity:
                self._draw_skip()
            return
        self._seen += 1
        if self._skip > 0:
            self._skip -= 1
            return
        slot = self._rng.randrange(self._capacity)
        self._reservoir[slot] = item
        self._draw_skip()

    def _draw_skip(self) -> None:
        """Draw how many upcoming items to pass over before replacing.

        Exact inverse-CDF of Algorithm R's gap distribution: after
        seeing ``t`` items, the probability that the next ``s``
        candidates are all rejected is ``prod_{j=1..s} (1 - k/(t+j))``.
        We draw one uniform ``u`` and walk the product until it drops
        below ``1 - u`` (Vitter's Algorithm X). The marginal inclusion
        probabilities are therefore identical to per-item Algorithm R,
        but only one RNG call is spent per *accepted* item.
        """
        t = self._seen
        k = self._capacity
        threshold = 1.0 - self._rng.random()
        survival = 1.0
        skip = 0
        while True:
            survival *= 1.0 - k / (t + skip + 1)
            if survival <= threshold or survival <= 0.0:
                break
            skip += 1
        self._skip = skip

    def reset(self) -> None:
        """Clear the reservoir and the pending skip-ahead counter."""
        super().reset()
        self._skip = 0
