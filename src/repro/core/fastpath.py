"""NumPy-accelerated sampling fast path (the backend seam).

Algorithm 1's ``RS(S_i, N_i)`` runs over a *materialised* interval, so
it only has to pick the survivor index set; the records are gathered
afterwards with one column op. Two kernels pick it:

* :func:`batch_sample_indices` (``numpy``) — a reservoir sample of a
  materialised batch is exactly a uniform random subset, so it reduces
  to one ``Generator.choice`` call — of the survivors, or of the
  dropped indices when more than half survive (the complement rule);
  the sorted ``intp`` array it returns indexes columns as is.
* :func:`reservoir_sample_indices` (``python``) — replays the
  per-item ``randrange`` stream of
  :class:`~repro.core.reservoir.ReservoirSampler` over indices.

Both produce a uniform random subset of size ``min(capacity, n)``, so
the count invariant of Eq. 8 (``W_out * c~ == W_in * c``) is preserved
bit-for-bit by the same :func:`~repro.core.weights.output_weight`
arithmetic.

The seam is the ``backend`` keyword threaded through
:func:`~repro.core.whs.whsamp`, the streams runtime and
:class:`~repro.system.config.PipelineConfig`:

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
primitives (``whsamp_batches``, ``CoinFlipSampler``) seed their own
from the caller's ``random.Random``. Seeded
runs are deterministic per backend; backends consume entropy
differently, so sampled *identities* differ between them while every
distribution is identical. ``python`` is golden-pinned; the numpy
identities were last re-baselined in PR 16 (shared stream, complement
rule).
"""

from __future__ import annotations

import random

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
    "batch_sample_indices",
    "make_generator",
    "numpy_available",
    "reservoir_sample_indices",
    "resolve_backend",
]

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
