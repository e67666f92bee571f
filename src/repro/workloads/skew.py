"""The extreme-skew workload of §V-E (Fig. 10(c)).

Four Poisson sub-streams where the *count* distribution is wildly
skewed against the *value* distribution: A(λ=10) carries 80 % of all
items, B(λ=100) 19.89 %, C(λ=1000) 0.1 %, and D(λ=10,000,000) only
0.01 % — so nearly all of the total *value* sits in a sub-stream that a
simple random sampler will usually miss entirely (or, when it does hit
it, scale up into a huge overestimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.columns import ColumnarBatch
from repro.errors import WorkloadError
from repro.workloads.synthetic import PoissonSubstream

__all__ = ["SkewedMixture", "paper_skewed_mixture"]


@dataclass
class SkewedMixture:
    """A mixture of sub-streams with fixed count proportions."""

    substreams: list[PoissonSubstream]
    proportions: list[float]
    _order: list[int] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if len(self.substreams) != len(self.proportions):
            raise WorkloadError(
                "substreams and proportions must have equal length"
            )
        if not self.substreams:
            raise WorkloadError("mixture needs at least one sub-stream")
        total = sum(self.proportions)
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"proportions must sum to 1, got {total}")
        if any(p < 0 for p in self.proportions):
            raise WorkloadError("proportions must be non-negative")

    def counts_for(self, total_items: int) -> dict[str, int]:
        """Exact per-sub-stream item counts for a batch of ``total_items``.

        Largest-remainder rounding; every sub-stream with a positive
        proportion receives at least one item when the total allows, so
        the rare-but-valuable stratum D is physically present in the
        ground truth.
        """
        if total_items < 0:
            raise WorkloadError(f"total_items must be >= 0, got {total_items}")
        raw = [total_items * p for p in self.proportions]
        counts = [int(r) for r in raw]
        shortfall = total_items - sum(counts)
        by_fraction = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for i in range(shortfall):
            counts[by_fraction[i % len(counts)]] += 1
        if total_items >= len(self.substreams):
            for i, proportion in enumerate(self.proportions):
                if proportion > 0 and counts[i] == 0:
                    donor = counts.index(max(counts))
                    counts[donor] -= 1
                    counts[i] += 1
        return {
            sub.name: count for sub, count in zip(self.substreams, counts)
        }

    def draw_columns(
        self, total_items: int, gen, emitted_at: float = 0.0
    ) -> ColumnarBatch:
        """A shuffled mixed-stratum batch following the proportions:
        vector per-stratum draws for each exact share, stacked, and one
        ``permutation``."""
        counts = self.counts_for(total_items)
        merged = ColumnarBatch.concat(
            [
                substream.draw_columns(counts[substream.name], gen, emitted_at)
                for substream in self.substreams
            ]
        )
        return merged.select(gen.permutation(len(merged)))


def paper_skewed_mixture() -> SkewedMixture:
    """The §V-E configuration: 80 / 19.89 / 0.1 / 0.01 percent."""
    return SkewedMixture(
        substreams=[
            PoissonSubstream("A", 10.0),
            PoissonSubstream("B", 100.0),
            PoissonSubstream("C", 1000.0),
            PoissonSubstream("D", 10_000_000.0),
        ],
        proportions=[0.80, 0.1989, 0.001, 0.0001],
    )
