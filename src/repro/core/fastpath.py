"""NumPy-accelerated sampling fast path (the backend seam).

Where the pure-Python ``ReservoirSampler.offer()`` loop of Algorithm 1
draws one random number per arriving item, this backend draws the
survivor index set for a whole batch at once:

* :func:`batch_sample_indices` — the one-shot kernel. A reservoir
  sample of a *materialised* batch is exactly a uniform random subset,
  so it reduces to one ``Generator.choice`` call — of the survivors, or
  of the dropped indices when more than half survive (the complement
  rule); the sorted ``intp`` array it returns indexes columns as is.
* :class:`NumpyReservoirSampler` — a drop-in, *streaming*
  ``ReservoirSampler`` whose :meth:`extend` replays Algorithm R with
  array ops: one vectorized draw decides the replacement slot of every
  item in the batch, and only the few accepted items (``O(k log n/k)``
  of them) touch Python objects.

Both kernels are distribution-identical to the pure-Python sampler —
they produce a uniform random subset of size ``min(capacity, n)``, so
the count invariant of Eq. 8 (``W_out * c~ == W_in * c``) is preserved
bit-for-bit by the same :func:`~repro.core.weights.output_weight`
arithmetic.

The seam is the ``backend`` keyword threaded through
:func:`~repro.core.whs.whsamp`, the node drivers, the streams runtime
and :class:`~repro.system.config.PipelineConfig`:

* ``"python"`` — the dependency-free default of the low-level
  primitives; bit-for-bit identical to the seed implementation.
* ``"numpy"`` — the vectorized kernels; raises
  :class:`~repro.errors.SamplingError` if numpy is not importable.
* ``"auto"`` — resolves to ``"numpy"`` when numpy is installed (e.g.
  via the ``[fast]`` extra), else ``"python"``. This is the default of
  the pipeline-level objects, so installing numpy speeds up every
  runner without code changes.

Randomness stays reproducible and each stream has one owner: a
pipeline seeds **one** ``Generator`` from its run seed
(:func:`make_generator`, ``Pipeline.gen``) and every reservoir draw and
coin flip of the run consumes it in execution order — no node, window
or batch builds another; a sharded run has one per shard. Standalone
primitives (``whsamp_batches``, ``CoinFlipSampler``, the streaming
sampler) seed their own from the caller's ``random.Random``. Seeded
runs are deterministic per backend; backends consume entropy
differently, so sampled *identities* differ between them while every
distribution is identical. ``python`` is golden-pinned; the numpy
identities were last re-baselined in PR 16 (shared stream, complement
rule).
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

from repro.core.reservoir import ReservoirSampler
from repro.errors import SamplingError

try:  # pragma: no cover - trivially environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_NUMPY",
    "BACKEND_PYTHON",
    "BACKENDS",
    "NumpyReservoirSampler",
    "batch_sample_indices",
    "make_generator",
    "make_reservoir_sampler",
    "numpy_available",
    "reservoir_sample_indices",
    "resolve_backend",
]

T = TypeVar("T")

BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"
BACKEND_AUTO = "auto"

#: Accepted values for every ``backend=`` keyword in the library.
BACKENDS = (BACKEND_AUTO, BACKEND_PYTHON, BACKEND_NUMPY)


def numpy_available() -> bool:
    """Whether the vectorized backend can be used in this environment."""
    return _np is not None


def resolve_backend(backend: str = BACKEND_AUTO) -> str:
    """Resolve a backend name to ``"python"`` or ``"numpy"``.

    ``"auto"`` picks numpy when it is importable and falls back to the
    pure-Python implementation otherwise. Requesting ``"numpy"``
    explicitly without numpy installed is an error rather than a silent
    slowdown.
    """
    if backend not in BACKENDS:
        raise SamplingError(
            f"unknown sampling backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == BACKEND_AUTO:
        return BACKEND_NUMPY if _np is not None else BACKEND_PYTHON
    if backend == BACKEND_NUMPY and _np is None:
        raise SamplingError(
            "sampling backend 'numpy' requested but numpy is not installed; "
            "install the '[fast]' extra or use backend='python'/'auto'"
        )
    return backend


def make_generator(rng: random.Random):
    """A numpy ``Generator`` deterministically seeded from a ``Random``.

    Seeding from the caller's Python RNG keeps whole-pipeline runs
    reproducible from a single integer seed regardless of backend.
    """
    if _np is None:
        raise SamplingError(
            "cannot create a numpy Generator: numpy is not installed"
        )
    return _np.random.default_rng(rng.getrandbits(64))


def batch_sample_indices(population: int, capacity: int, gen):
    """Survivor indices of a one-shot reservoir sample: sorted ``intp`` array.

    A reservoir sample over a fully materialised batch is a uniform
    random subset of size ``min(capacity, population)`` — exactly the
    distribution Algorithm R induces — so the whole survivor set is
    drawn with a single vectorized call instead of one ``randrange``
    per item. Sorting preserves arrival order in the output sample.
    When more than half survive, the *dropped* indices are drawn and
    the rest returned (the complement of a uniform ``k``-subset is a
    uniform ``(n - k)``-subset; ``choice`` near ``k = n`` shuffles all).
    """
    if capacity <= 0:
        raise SamplingError(f"reservoir capacity must be >= 1, got {capacity}")
    if population < 0:
        raise SamplingError(f"population must be >= 0, got {population}")
    if population <= capacity:
        return _np.arange(population, dtype=_np.intp)
    if capacity > population / 2:
        dropped = population - capacity
        keep = _np.ones(population, dtype=bool)
        keep[gen.choice(population, dropped, replace=False, shuffle=False)] = False
        return _np.flatnonzero(keep)
    indices = gen.choice(population, capacity, replace=False, shuffle=False)
    indices.sort()
    return indices.astype(_np.intp, copy=False)


def reservoir_sample_indices(
    population: int, capacity: int, rng: random.Random
) -> list[int]:
    """Survivor indices of Algorithm R over ``range(population)``.

    The pure-Python twin of :func:`batch_sample_indices`: it replays
    :class:`ReservoirSampler`'s per-item entropy consumption (one
    ``randrange(seen)`` per item beyond the capacity) over *indices*
    instead of items, so a seeded run selects exactly the records — in
    exactly the reservoir-slot order — that a ``ReservoirSampler`` fed
    the same items would have kept.
    """
    if capacity <= 0:
        raise SamplingError(f"reservoir capacity must be >= 1, got {capacity}")
    if population < 0:
        raise SamplingError(f"population must be >= 0, got {population}")
    reservoir = list(range(min(population, capacity)))
    for index in range(capacity, population):
        slot = rng.randrange(index + 1)
        if slot < capacity:
            reservoir[slot] = index
    return reservoir


class NumpyReservoirSampler(ReservoirSampler[T]):
    """Drop-in :class:`ReservoirSampler` with a vectorized ``extend``.

    :meth:`extend` replays Algorithm R over the whole batch with array
    ops: for the ``i``-th item overall the replacement slot is
    ``floor(u * i)`` (accepted iff ``< capacity``), and all the draws
    for a batch happen in one vectorized call. Only accepted items —
    ``O(capacity * log(n / capacity))`` of them — are touched in
    Python, which is where the order-of-magnitude speedup comes from.

    Marginal inclusion probabilities are identical to the pure-Python
    sampler; entropy consumption differs, so the sampled *identities*
    differ between backends for the same seed.

    Per-item :meth:`offer` calls carry numpy call overhead; feed this
    sampler in batches (or keep the python backend for per-item flows
    such as the round-robin worker pools).
    """

    def __init__(self, capacity: int, rng: random.Random | None = None) -> None:
        super().__init__(capacity, rng)
        self._gen = make_generator(self._rng)

    def offer(self, item: T) -> None:
        """Offer one item (vectorized path with a batch of one)."""
        self.extend((item,))

    def extend(self, items) -> None:
        """Offer a whole batch through the vectorized Algorithm R replay."""
        seq = items if isinstance(items, Sequence) else list(items)
        n = len(seq)
        if n == 0:
            return
        position = 0
        free = self._capacity - len(self._reservoir)
        if free > 0:
            take = min(free, n)
            self._reservoir.extend(seq[:take])
            self._seen += take
            position = take
        if position >= n:
            return
        remaining = n - position
        start = self._seen
        # Slot of the i-th item overall is floor(u * i), u ~ U[0, 1).
        # Rounding can only push a slot to i itself, which is >= capacity
        # here (the reservoir is full, so i > capacity) and therefore
        # rejected — same outcome as any other non-reservoir slot.
        counters = _np.arange(start + 1, start + remaining + 1, dtype=_np.float64)
        slots = (self._gen.random(remaining) * counters).astype(_np.int64)
        accepted = _np.nonzero(slots < self._capacity)[0]
        # Later items overwrite earlier ones in the same slot, exactly as
        # the sequential algorithm would; dict/list assignment order
        # below preserves that.
        for offset, slot in zip(accepted.tolist(), slots[accepted].tolist()):
            self._reservoir[slot] = seq[position + offset]
        self._seen = start + remaining


def make_reservoir_sampler(
    capacity: int,
    rng: random.Random | None = None,
    *,
    backend: str = BACKEND_AUTO,
) -> ReservoirSampler[T]:
    """Factory for a reservoir sampler on the requested backend.

    The returned object satisfies the full :class:`ReservoirSampler`
    API (``offer``/``extend``/``sample``/``reset``/``seen``), so call
    sites need no branching beyond construction.
    """
    resolved = resolve_backend(backend)
    if resolved == BACKEND_NUMPY:
        return NumpyReservoirSampler(capacity, rng)
    return ReservoirSampler(capacity, rng)
