"""Reservoir allocation across strata (``getSampleSize`` policies).

Algorithm 1 line 7 calls ``getSampleSize(sampleSize, S)`` to split a
node's total sample budget across the sub-streams seen in the current
interval. The paper leaves the policy open ("the core design is
agnostic to the ways of choosing the sample size"), so we implement the
two natural policies and make them pluggable:

* **equal** — every sub-stream gets ``sampleSize / |S|`` slots. This is
  the fairness policy stratification is about: a tiny sub-stream gets
  the same reservoir as a huge one, so it is never drowned out.
* **proportional** — slots proportional to each sub-stream's arrival
  count in the interval, mimicking what plain SRS does in aggregate.
  Included as an ablation of the design choice.

Both policies guarantee every sub-stream receives at least one slot as
long as the budget covers the stratum count; otherwise the allocation
degrades gracefully (largest-remainder rounding, minimum of 1).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import SamplingError

__all__ = [
    "AllocationPolicy",
    "allocate_equal",
    "allocate_fair_fill",
    "allocate_proportional",
    "allocate_weighted",
]

AllocationPolicy = Callable[[int, Mapping[str, int]], dict[str, int]]


def _validate(sample_size: int, stratum_counts: Mapping[str, int]) -> None:
    if sample_size <= 0:
        raise SamplingError(f"sample size must be positive, got {sample_size}")
    if not stratum_counts:
        raise SamplingError("cannot allocate a budget over zero sub-streams")
    for substream, count in stratum_counts.items():
        if count < 0:
            raise SamplingError(
                f"sub-stream {substream!r} has negative count {count}"
            )


def allocate_equal(sample_size: int, stratum_counts: Mapping[str, int]) -> dict[str, int]:
    """Split the budget evenly across sub-streams (min 1 slot each).

    Remainder slots go to the sub-streams with the largest arrival
    counts, which minimises the chance of overflow where pressure is
    highest while preserving fairness for the small strata.
    """
    _validate(sample_size, stratum_counts)
    n = len(stratum_counts)
    base = max(1, sample_size // n)
    allocation = {substream: base for substream in stratum_counts}
    remainder = sample_size - base * n
    if remainder > 0:
        by_pressure = sorted(
            stratum_counts, key=lambda s: stratum_counts[s], reverse=True
        )
        for substream in by_pressure[:remainder]:
            allocation[substream] += 1
    return allocation


def allocate_proportional(
    sample_size: int, stratum_counts: Mapping[str, int]
) -> dict[str, int]:
    """Split the budget proportionally to per-stratum arrival counts.

    Uses largest-remainder rounding so the totals add up to the budget
    when it is feasible, with a floor of one slot per sub-stream (a
    reservoir of size zero is meaningless).
    """
    _validate(sample_size, stratum_counts)
    total = sum(stratum_counts.values())
    if total == 0:
        return allocate_equal(sample_size, stratum_counts)
    shares = {
        substream: sample_size * count / total
        for substream, count in stratum_counts.items()
    }
    allocation = {substream: max(1, int(share)) for substream, share in shares.items()}
    assigned = sum(allocation.values())
    leftovers = sample_size - assigned
    if leftovers > 0:
        by_fraction = sorted(
            shares, key=lambda s: shares[s] - int(shares[s]), reverse=True
        )
        index = 0
        while leftovers > 0 and by_fraction:
            allocation[by_fraction[index % len(by_fraction)]] += 1
            leftovers -= 1
            index += 1
    else:
        # The min-1 floor can push the total past the budget when many
        # strata have near-zero shares; shave the overshoot off the
        # largest reservoirs so totals conserve whenever the budget
        # covers the stratum count (the floor itself is never shaved).
        overshoot = -leftovers
        while overshoot > 0:
            largest = max(allocation, key=lambda s: (allocation[s], s))
            if allocation[largest] <= 1:
                break
            allocation[largest] -= 1
            overshoot -= 1
    return allocation


def allocate_fair_fill(
    sample_size: int, stratum_counts: Mapping[str, int]
) -> dict[str, int]:
    """Fair share first, then redistribute unused budget (the default).

    Small sub-streams whose arrival count fits under the equal share
    keep *all* their items (a reservoir at least as big as the stratum),
    and the slots they did not need flow to the overflowing strata.
    Iterating until no stratum sits under its share yields the max-min
    fair allocation: rare strata are fully represented (the property
    Fig. 10(c) depends on) while no budget is wasted on reservoirs that
    cannot fill (which would silently shrink the realized sampling
    fraction and inflate variance for the big strata).
    """
    _validate(sample_size, stratum_counts)
    allocation: dict[str, int] = {}
    active = {
        substream: max(1, count) for substream, count in stratum_counts.items()
    }
    remaining = sample_size
    while active:
        share = remaining // len(active)
        if share <= 0:
            # Budget smaller than the stratum count: one slot each.
            for substream in active:
                allocation[substream] = 1
            break
        satisfied = {
            substream: count
            for substream, count in active.items()
            if count <= share
        }
        if not satisfied:
            # Everyone overflows: split the remainder evenly, largest
            # arrival counts absorbing the leftover slots.
            base = remaining // len(active)
            for substream in active:
                allocation[substream] = base
            leftover = remaining - base * len(active)
            by_pressure = sorted(active, key=active.get, reverse=True)
            for substream in by_pressure[:leftover]:
                allocation[substream] += 1
            break
        for substream, count in satisfied.items():
            allocation[substream] = count
            remaining -= count
            del active[substream]
    return allocation


def allocate_weighted(
    sample_size: int,
    stratum_counts: Mapping[str, int],
    weights: Mapping[str, float],
) -> dict[str, int]:
    """Water-fill the budget by external weights, capped at the counts.

    The weight-generalized form of :func:`allocate_fair_fill`: each
    stratum's share of the remaining budget is proportional to its
    weight instead of flat, strata whose arrival count fits under their
    share keep everything, and the unused slots flow back into the pool
    for the heavier strata. This is the ``getSampleSize`` shape Neyman
    allocation needs — weight a stratum by ``c_i * s_i`` and the split
    approaches the variance-minimizing allocation while still never
    wasting budget on reservoirs that cannot fill.

    Weights must be non-negative; missing strata default to 1 and an
    all-zero map degrades to the unweighted fair fill. Every stratum
    keeps the one-slot floor, and totals conserve exactly whenever the
    budget covers the stratum count (``sum(alloc) == min(sample_size,
    sum(max(1, count_i)))``).
    """
    _validate(sample_size, stratum_counts)
    for substream, weight in weights.items():
        if weight < 0:
            raise SamplingError(
                f"stratum {substream!r} has negative weight {weight}"
            )
    weight_of = {
        substream: float(weights.get(substream, 1.0))
        for substream in stratum_counts
    }
    if all(weight == 0.0 for weight in weight_of.values()):
        weight_of = {substream: 1.0 for substream in weight_of}
    allocation: dict[str, int] = {}
    active = {
        substream: max(1, count) for substream, count in stratum_counts.items()
    }
    remaining = sample_size
    while active:
        if remaining < len(active):
            # Budget smaller than the stratum count: one slot each.
            for substream in active:
                allocation[substream] = 1
            break
        total_weight = sum(weight_of[s] for s in active)
        shares = {
            substream: (
                remaining * weight_of[substream] / total_weight
                if total_weight > 0 else remaining / len(active)
            )
            for substream in active
        }
        satisfied = {
            substream: count
            for substream, count in active.items()
            if count <= shares[substream]
        }
        if satisfied:
            progressed = False
            for substream in sorted(satisfied):
                count = satisfied[substream]
                # A near-zero-weight stratum's share can round below
                # its one-slot floor; satisfying the heavy strata in
                # full would then spend the floors' budget and
                # over-allocate. Only satisfy while every still-active
                # stratum's floor stays fundable — the rounding branch
                # below shaves the rest to conserve exactly.
                if count > remaining - (len(active) - 1):
                    continue
                allocation[substream] = count
                remaining -= count
                del active[substream]
                progressed = True
            if progressed:
                continue
        # Every cap exceeds its weighted share: integerize the shares
        # (min 1 slot), largest fractional remainders absorbing the
        # leftover — each rounded share stays under its cap because
        # the cap is an integer strictly above the share.
        base = {
            substream: max(1, int(shares[substream])) for substream in active
        }
        leftover = remaining - sum(base.values())
        by_fraction = sorted(
            active,
            key=lambda s: (shares[s] - int(shares[s]), s),
            reverse=True,
        )
        index = 0
        while leftover > 0:
            candidate = by_fraction[index % len(by_fraction)]
            if base[candidate] < active[candidate]:
                base[candidate] += 1
                leftover -= 1
            index += 1
        while leftover < 0:
            largest = max(base, key=lambda s: (base[s], s))
            if base[largest] <= 1:  # pragma: no cover - defensive
                break
            base[largest] -= 1
            leftover += 1
        allocation.update(base)
        break
    return allocation
