"""Statistics computation at the root node (§III-C).

The root node receives ``(W_out, I)`` pairs — :class:`WeightedBatch`
objects — accumulated in a store ``Theta``. From those it recreates the
original stream statistically:

* per-sub-stream SUM (Eq. 3): sum of each batch's weighted value sum;
* overall SUM* (Eq. 4): sum over sub-streams;
* per-sub-stream count ``c_i,b`` (Eq. 8): sum of ``|I| * W_out``, which
  is an exact (not just unbiased) recovery of the number of items the
  bottom node saw — the invariant the paper proves.

SUM* with its §III-D error bound is
:func:`~repro.core.error_bounds.estimate_sum_with_error`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.columns import concat_value_chunks
from repro.core.items import WeightedBatch

__all__ = ["ThetaStore", "SubstreamEstimate"]


@dataclass(slots=True)
class SubstreamEstimate:
    """Per-sub-stream quantities derived from the root's sample.

    Attributes:
        substream: The stratum identifier.
        estimated_sum: ``SUM_i`` of Eq. 3.
        estimated_count: ``c_i,b`` recovered through Eq. 8.
        sampled_count: ``zeta`` — number of physical items at the root.
        sampled_values: The raw sampled values (needed for variance),
            as one contiguous value column.
    """

    substream: str
    estimated_sum: float
    estimated_count: float
    sampled_count: int
    sampled_values: Sequence[float]


class ThetaStore:
    """The root node's temporary store ``Theta`` of Algorithm 2.

    Collects ``(W_out, sample)`` pairs over one query window and exposes
    the per-sub-stream estimates. Each window builds a fresh store
    (``runJob`` consumes it).

    §III-E's merge is concatenation: each shard's pairs keep Eq. 8 on
    their own, so the sharded root calls :meth:`extend` with every
    shard's ``batches``.
    """

    def __init__(self) -> None:
        self._batches: list[WeightedBatch] = []

    def add(self, batch: WeightedBatch) -> None:
        """Append one weighted batch (line 16 of Algorithm 2)."""
        self._batches.append(batch)

    def extend(self, batches: Iterable[WeightedBatch]) -> None:
        """Append a collection of weighted batches."""
        for batch in batches:
            self.add(batch)

    def merge(self, other: "ThetaStore") -> None:
        """Append another store's pairs (``extend`` with its batches).

        Kept for the benchmark's codec probe (``bench/adapter.py``),
        which times a decode-and-merge of shard frames.
        """
        self._batches.extend(other._batches)

    @property
    def batches(self) -> list[WeightedBatch]:
        """Snapshot of the stored pairs."""
        return list(self._batches)

    @property
    def sampled_items(self) -> int:
        """Physical items held across the stored pairs (no snapshot)."""
        return sum(len(batch) for batch in self._batches)

    def __len__(self) -> int:
        return len(self._batches)

    def per_substream(self) -> dict[str, SubstreamEstimate]:
        """Compute :class:`SubstreamEstimate` for every stored stratum.

        One pass over the stored pairs: each stratum's Eq. 3 sum and
        Eq. 8 count accumulate left to right (one vector reduction per
        batch), and its sampled values are its batches' columns,
        concatenated once.
        """
        strata: dict[str, list] = {}
        for batch in self._batches:
            entry = strata.get(batch.substream)
            if entry is None:
                entry = strata[batch.substream] = [0.0, 0.0]
            entry[0] += batch.estimated_sum
            entry[1] += batch.estimated_count
            entry.append(batch.items.values)
        estimates = {}
        for key, (total, count, *chunks) in strata.items():
            sampled = concat_value_chunks(chunks)
            estimates[key] = SubstreamEstimate(
                substream=key,
                estimated_sum=total,
                estimated_count=count,
                sampled_count=len(sampled),
                sampled_values=sampled,
            )
        return estimates
