"""Statistics computation at the root node (§III-C).

The root node receives ``(W_out, I)`` pairs — :class:`WeightedBatch`
objects — accumulated in a store ``Theta``. From those it recreates the
original stream statistically:

* per-sub-stream SUM (Eq. 3): sum of each batch's weighted value sum;
* overall SUM* (Eq. 4): sum over sub-streams;
* per-sub-stream count ``c_i,b`` (Eq. 8): sum of ``|I| * W_out``, which
  is an exact (not just unbiased) recovery of the number of items the
  bottom node saw — the invariant the paper proves;
* MEAN* (Eq. 13): a count-weighted combination of per-stratum means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.columns import concat_value_chunks
from repro.core.items import WeightedBatch
from repro.errors import EstimationError

__all__ = ["ThetaStore", "SubstreamEstimate", "estimate_sum", "estimate_mean"]


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

    @property
    def estimated_mean(self) -> float:
        """``MEAN_i`` — the ratio estimator SUM_i / c_i,b."""
        if self.estimated_count == 0:
            raise EstimationError(
                f"sub-stream {self.substream!r} has zero estimated count"
            )
        return self.estimated_sum / self.estimated_count


class ThetaStore:
    """The root node's temporary store ``Theta`` of Algorithm 2.

    Collects ``(W_out, sample)`` pairs over one query window and exposes
    the per-sub-stream and global estimators. The store is cleared when
    the window closes (``runJob`` consumed it).
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
        """Fold another store's pairs into this one (sharded root merge).

        Theta is mergeable by construction: it is a bag of ``(W_out,
        I)`` pairs and every estimator below is a sum over pairs, so
        the root of a sharded run simply extends its store with each
        worker shard's pairs — Eq. 8 holds per pair, hence for the
        union, and the merged estimates are exactly what a single
        process holding all pairs would compute.
        """
        self._batches.extend(other._batches)

    def clear(self) -> None:
        """Drop the stored pairs after the query consumed them."""
        self._batches.clear()

    @property
    def batches(self) -> list[WeightedBatch]:
        """Snapshot of the stored pairs."""
        return list(self._batches)

    @property
    def sampled_items(self) -> int:
        """Physical items held across the stored pairs (no snapshot)."""
        return sum(len(batch) for batch in self._batches)

    @property
    def substreams(self) -> list[str]:
        """Sorted list of sub-streams present in the store."""
        return sorted({batch.substream for batch in self._batches})

    def __len__(self) -> int:
        return len(self._batches)

    def per_substream(self) -> dict[str, SubstreamEstimate]:
        """Compute :class:`SubstreamEstimate` for every stored stratum.

        Batches contribute their value columns directly: Eq. 3's
        weighted sums are one vector op each, and a stratum's sampled
        values are its batches' columns concatenated.
        """
        sums: dict[str, float] = {}
        counts: dict[str, float] = {}
        chunks: dict[str, list] = {}
        for batch in self._batches:
            key = batch.substream
            sums[key] = sums.get(key, 0.0) + batch.estimated_sum
            counts[key] = counts.get(key, 0.0) + batch.estimated_count
            chunks.setdefault(key, []).append(batch.items.values)
        sampled = {key: concat_value_chunks(chunks[key]) for key in chunks}
        return {
            key: SubstreamEstimate(
                substream=key,
                estimated_sum=sums[key],
                estimated_count=counts[key],
                sampled_count=len(sampled[key]),
                sampled_values=sampled[key],
            )
            for key in sums
        }


def estimate_sum(theta: ThetaStore | Sequence[WeightedBatch]) -> float:
    """``SUM*`` of Eq. 4 — the approximate total over all sub-streams."""
    batches = theta.batches if isinstance(theta, ThetaStore) else list(theta)
    return sum(batch.estimated_sum for batch in batches)


def estimate_mean(theta: ThetaStore | Sequence[WeightedBatch]) -> float:
    """``MEAN*`` of Eq. 13 — count-weighted combination of stratum means.

    Algebraically equal to ``SUM* / sum_i c_i,b``; computed through the
    per-stratum decomposition so the same code path feeds the variance
    estimator.
    """
    store = theta if isinstance(theta, ThetaStore) else _as_store(theta)
    estimates = store.per_substream()
    if not estimates:
        raise EstimationError("cannot estimate a mean from an empty store")
    total_count = sum(est.estimated_count for est in estimates.values())
    if total_count == 0:
        raise EstimationError("all sub-streams have zero estimated count")
    return sum(est.estimated_sum for est in estimates.values()) / total_count


def _as_store(batches: Sequence[WeightedBatch]) -> ThetaStore:
    store = ThetaStore()
    store.extend(batches)
    return store
