"""Data-item primitives shared across the library.

The unit of data in ApproxIoT is a *stream item*: a numeric value tagged
with the sub-stream (stratum) it belongs to and the simulated time at
which its source emitted it. Nodes exchange *weighted batches*: a set of
items from one sub-stream together with the output weight computed by
Algorithm 1 (the ``(W_out, I)`` pairs the paper stores in ``Theta``).

A batch's payload is always a
:class:`~repro.core.columns.ColumnarBatch` — the records as
structure-of-arrays columns, which the hot paths aggregate with vector
ops. ``StreamItem`` lists are an edge format: :class:`WeightedBatch`
accepts one and converts it once on construction, and iterating a batch
hands ``StreamItem`` objects back out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = ["StreamItem", "WeightedBatch", "group_by_substream"]


@dataclass(frozen=True, slots=True)
class StreamItem:
    """One record of an input stream.

    Attributes:
        substream: Identifier of the stratum (data source or group of
            sources following the same distribution) the item belongs to.
        value: The numeric payload the query aggregates over.
        emitted_at: Simulation time (seconds) at which the source
            produced the item. Used for end-to-end latency accounting.
        size_bytes: Serialized size used by the network simulator for
            bandwidth accounting.
    """

    substream: str
    value: float
    emitted_at: float = 0.0
    size_bytes: int = 100

    def with_value(self, value: float) -> "StreamItem":
        """Return a copy of this item carrying a different value."""
        return StreamItem(self.substream, value, self.emitted_at, self.size_bytes)


@dataclass(slots=True)
class WeightedBatch:
    """A ``(W_out, I)`` pair for one sub-stream.

    This is the unit forwarded between nodes of the logical tree and the
    element type of the root's temporary store ``Theta`` in Algorithm 2.

    Attributes:
        substream: The stratum the items belong to.
        weight: The output weight ``W_out`` attached by the last node
            that sampled the batch. A weight of ``w`` means each carried
            item statistically represents ``w`` original items.
        items: The sampled records as a
            :class:`~repro.core.columns.ColumnarBatch`. Anything else
            handed to the constructor (a ``StreamItem`` sequence) is
            converted once with ``ColumnarBatch.from_items``; iterating
            yields :class:`StreamItem` objects.
    """

    substream: str
    weight: float
    items: _columns.ColumnarBatch = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:  # NaN fails both sides
            raise ValueError(
                f"batch weight must be positive and finite, got {self.weight}"
            )
        # The tree builds a batch per group per node: columns cost one
        # isinstance here, only the StreamItem edge pays a conversion.
        if not isinstance(self.items, _columns.ColumnarBatch):
            self.items = _columns.ColumnarBatch.from_items(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self.items)

    @property
    def estimated_count(self) -> float:
        """Estimate of the number of original items this batch represents.

        This is the left-hand side of the paper's invariant (Eq. 8):
        ``|I| * W_out`` equals the true item count at the bottom node.
        """
        return len(self.items) * self.weight

    @property
    def estimated_sum(self) -> float:
        """Weighted sum contribution of this batch (inner term of Eq. 3)."""
        return self.weight * self.items.value_sum()

    @property
    def total_bytes(self) -> int:
        """Serialized payload size of the batch for bandwidth accounting."""
        return self.items.total_bytes


def group_by_substream(items: Iterable[StreamItem]) -> dict[str, list[StreamItem]]:
    """Stratify a flat item sequence by sub-stream identifier.

    This implements the ``Update`` step (line 5 of Algorithm 1): the node
    stratifies the input stream into sub-streams according to their
    sources.
    """
    grouped: dict[str, list[StreamItem]] = {}
    for item in items:
        grouped.setdefault(item.substream, []).append(item)
    return grouped


def total_value(batches: Sequence[WeightedBatch]) -> float:
    """Sum the weighted values over a collection of batches."""
    return sum(batch.estimated_sum for batch in batches)


# At the bottom because the import is circular: repro.core.columns takes
# StreamItem from this module, WeightedBatch normalises through it.
from repro.core import columns as _columns  # noqa: E402
