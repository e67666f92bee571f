"""The sampling kernel: one reservoir draw over a materialised interval.

Algorithm 1's ``RS(S_i, N_i)`` runs over a *materialised* interval, so
it only has to pick the survivor index set; the records are gathered
afterwards with one column op. :func:`batch_sample_indices` picks it:
a reservoir sample of a materialised batch is exactly a uniform random
subset of size ``min(capacity, n)``, so it reduces to one
``Generator.choice`` call — of the survivors, or of the dropped indices
when more than half survive (the complement rule); the sorted ``intp``
array it returns indexes columns as is (survivors are sorted as
``int32`` when the population fits: the same set in the same order).
The count invariant of Eq. 8 (``W_out * c~ == W_in * c``) is preserved
bit-for-bit by the :func:`~repro.core.weights.output_weight`
arithmetic.
:class:`~repro.core.reservoir.ReservoirSampler` (Algorithm R) is the
reference the tests hold this kernel to.

Randomness stays reproducible and each stream has one owner: a
pipeline seeds **one** ``Generator`` from its run seed
(:func:`make_generator`, ``Pipeline.gen``) and every reservoir draw and
coin flip of the run consumes it in execution order — no node, window
or batch builds another; a sharded run has one per shard. Standalone
primitives take theirs from the caller: ``whsamp_batches`` seeds one
from the caller's ``random.Random``, and
:func:`~repro.core.srs.coin_flips` draws from the ``Generator`` it is
handed.
"""

from __future__ import annotations

import random

import numpy as _np

from repro.errors import SamplingError

__all__ = ["batch_sample_indices", "make_generator"]


def make_generator(rng: random.Random):
    """A numpy ``Generator`` deterministically seeded from a ``Random``.

    Seeding from the caller's Python RNG keeps whole-pipeline runs
    reproducible from a single integer seed.
    """
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
    if population < 2**31:
        # The same set in the same order: a 4-byte sort moves half the
        # bytes, and the gather takes ``intp`` either way.
        indices = indices.astype(_np.int32)
    indices.sort()
    return indices.astype(_np.intp, copy=False)
