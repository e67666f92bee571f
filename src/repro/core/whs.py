"""Weighted hierarchical sampling — Algorithm 1 of the paper.

``whsamp`` is the basic operation run on every node in the logical
tree, once per time interval. It stratifies the interval's arrivals
into sub-streams, allocates the node's sample budget across them, runs
reservoir sampling per sub-stream, and rescales each sub-stream's
weight by ``c_i / N_i`` when its reservoir overflowed (Equations 1–2).

The key invariant (the paper proves it as Equation 8 and we test it
property-based) is that the *estimated count* is preserved exactly::

    W_out_i * c~_i == W_in_i * c_i

where ``c_i`` is the number of arrivals and ``c~_i`` the number of
sampled items. Because of this, the root's weighted sums are unbiased
regardless of how many layers sampled the data on the way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import StreamItem, WeightedBatch
from repro.core.stratified import AllocationPolicy, allocate_fair_fill
from repro.core.weights import WeightMap, output_weight
from repro.errors import SamplingError

__all__ = [
    "WHSampResult",
    "whsamp",
    "whsamp_batches",
]


@dataclass(slots=True)
class WHSampResult:
    """Return value of one ``whsamp`` invocation.

    Attributes:
        batches: One :class:`WeightedBatch` per sub-stream seen in the
            interval, carrying the sampled items and output weight.
        weights: The output weight map ``W_out`` for all sub-streams.
        seen: Per-sub-stream arrival counts ``c_i`` for the interval.
        allocation: Per-sub-stream reservoir sizes ``N_i`` used.
    """

    batches: list[WeightedBatch] = field(default_factory=list)
    weights: WeightMap = field(default_factory=WeightMap)
    seen: dict[str, int] = field(default_factory=dict)
    allocation: dict[str, int] = field(default_factory=dict)


def whsamp_batches(
    batches: Iterable[WeightedBatch],
    sample_size: int,
    *,
    policy: AllocationPolicy = allocate_fair_fill,
    rng: random.Random | None = None,
    gen=None,
) -> WHSampResult:
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

    The result's weight map records, per sub-stream, the output weight
    of that sub-stream's largest group — the "up-to-date weight" used
    by the stale-weight rule of Figure 3 when later items arrive
    without metadata.

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
        return WHSampResult()
    # line 7: getSampleSize
    allocation = policy(
        sample_size, {key: group[0] for key, group in groups.items()}
    )
    sampled_batches: list[WeightedBatch] = []
    seen: dict[str, int] = {}
    reservoirs: dict[str, int] = {}
    weights: dict[str, float] = {}
    dominant: dict[str, int] = {}
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
        seen[substream] = seen.get(substream, 0) + count
        reservoirs[substream] = reservoirs.get(substream, 0) + capacity
        if count >= dominant.get(substream, 0):
            dominant[substream] = count
            weights[substream] = w_out
    return WHSampResult(sampled_batches, WeightMap(weights), seen, reservoirs)


def whsamp(
    items: "Iterable[StreamItem] | ColumnarBatch",
    sample_size: int,
    input_weights: WeightMap | Mapping[str, float] | None = None,
    *,
    policy: AllocationPolicy = allocate_fair_fill,
    rng: random.Random | None = None,
) -> WHSampResult:
    """Run Algorithm 1 over one interval's arrivals.

    Args:
        items: The data items received within the interval (possibly
            from many sub-streams, in arrival order) — a
            :class:`~repro.core.columns.ColumnarBatch`, or a
            ``StreamItem`` sequence that is converted to one.
        sample_size: The node's total sample budget for the interval,
            derived from the resource budget by the cost function.
        input_weights: ``W_in`` — the latest weights received from
            downstream nodes. Sub-streams with no recorded weight
            default to 1 (items fresh from a source). Per Figure 3,
            stale weights apply when items and weights arrive in
            different intervals: a node keeps the map it *received*
            across intervals and passes it to every call. The map is
            copied, never updated, so the node's own output weights
            do not feed back (node B reuses the received ``w = 1.5``
            in interval ``v+1``, not its output ``w = 3``; feeding
            outputs back would compound the weight every interval).
        policy: The ``getSampleSize`` budget-split policy.
        rng: Random source (pass a seeded instance for reproducibility).

    Returns:
        A :class:`WHSampResult` with the sampled batches and ``W_out``.
    """
    if sample_size <= 0:
        raise SamplingError(f"sample size must be positive, got {sample_size}")
    weights_in = (
        input_weights.copy()
        if isinstance(input_weights, WeightMap)
        else WeightMap(input_weights)
    )
    # line 5: Update(items)
    substreams = ColumnarBatch.from_items(items).group_by_substream()
    pairs = [
        WeightedBatch(substream, weights_in.get(substream), sub_items)
        for substream, sub_items in substreams.items()
    ]
    result = whsamp_batches(pairs, sample_size, policy=policy, rng=rng)
    # The caller's full weight map rolls forward: sub-streams absent
    # from this interval keep their stale weights (Figure 3's rule).
    merged = weights_in.copy()
    merged.merge(result.weights)
    result.weights = merged
    return result
