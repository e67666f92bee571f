"""Weighted hierarchical sampling — Algorithm 1 of the paper.

``whsamp_batches`` is the basic operation run on every node in the
logical tree, once per time interval. It groups the interval's
``(W_in, items)`` arrivals by sub-stream and input weight, allocates
the node's sample budget across the groups, runs reservoir sampling
per group, and rescales each group's weight by ``c_i / N_i`` when its
reservoir overflowed (Equations 1–2).

The key invariant (the paper proves it as Equation 8 and we test it
property-based) is that the *estimated count* is preserved exactly::

    W_out_i * c~_i == W_in_i * c_i

where ``c_i`` is the number of arrivals and ``c~_i`` the number of
sampled items. Because of this, the root's weighted sums are unbiased
regardless of how many layers sampled the data on the way.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import WeightedBatch
from repro.core.stratified import AllocationPolicy, allocate_fair_fill
from repro.core.weights import output_weight
from repro.errors import SamplingError

__all__ = ["whsamp_batches"]


def whsamp_batches(
    batches: Iterable[WeightedBatch],
    sample_size: int,
    *,
    policy: AllocationPolicy = allocate_fair_fill,
    rng: random.Random | None = None,
    gen=None,
) -> list[WeightedBatch]:
    """Run Algorithm 1 over the interval's ``(W_in, items)`` pairs.

    Algorithm 2's inner loop hands *each pair* of weight map and items
    to WHSamp separately — a node may receive several pairs for the
    same sub-stream (one per child, per interval split) carrying
    *different* input weights, and merging them under a single weight
    would break the count invariant of Eq. 8. This entry point keeps
    the invariant by sampling each ``(sub-stream, W_in)`` group through
    its own reservoir: the node's budget is allocated across groups by
    ``policy``, and each group's output weight follows Eq. 2 from its
    own input weight. The output therefore contains one weighted batch
    per group, which is exactly why the root's Theta store may hold
    "multiple pairs of the weight map and sampled items" per
    sub-stream (§III-C).

    Figure 3's stale-weight rule is the caller's: a node whose items
    arrive without weight metadata sends them in at the weight it last
    *received* for their sub-stream (a source's items at 1), never at
    the weight it output — so a batch's ``weight`` is its ``W_in``.

    Each overflowing group's survivors are drawn by
    :func:`~repro.core.fastpath.batch_sample_indices` from ``gen`` (the
    engine passes its pipeline's one Generator) or, standalone, from
    one seeded from ``rng`` when the first group overflows its
    allocation: a pass-through interval costs no entropy. The kernel
    draws survivor *indices* and gathers them with one column op; no
    record is touched individually.
    """
    if sample_size <= 0:
        raise SamplingError(f"sample size must be positive, got {sample_size}")

    # One scan of the inbox: each (sub-stream, W_in) group is one entry
    # [arrival count, payload, ...]; silent payloads are dropped here.
    groups: dict[tuple[str, float], list] = {}
    for batch in batches:
        payload = batch.items
        count = len(payload.values)
        if count:
            key = (batch.substream, batch.weight)
            group = groups.get(key)
            if group is None:
                groups[key] = [count, payload]
            else:
                group[0] += count
                group.append(payload)

    if not groups:
        return []
    # line 7: getSampleSize
    allocation = policy(
        sample_size, {key: group[0] for key, group in groups.items()}
    )
    sampled_batches: list[WeightedBatch] = []
    for key, group in groups.items():
        substream, w_in = key
        count = group[0]
        capacity = allocation[key]
        group_items = (
            group[1] if len(group) == 2 else ColumnarBatch.concat(group[1:])
        )
        # line 10: RS(S_i, N_i) — survivor indices, then one gather; a
        # group that fits its reservoir passes through at its W_in.
        if count <= capacity:
            sampled, w_out = group_items, w_in
        else:
            if gen is None:
                gen = make_generator(rng or random.Random())
            sampled = group_items.select(
                batch_sample_indices(count, capacity, gen)
            )
            w_out = output_weight(w_in, count, capacity)  # Eq. 1-2
        sampled_batches.append(WeightedBatch(substream, w_out, sampled))
    return sampled_batches
