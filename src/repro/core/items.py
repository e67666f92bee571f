"""Data-item primitives shared across the library.

The unit of data in ApproxIoT is a *stream item*: a numeric value tagged
with the sub-stream (stratum) it belongs to and the simulated time at
which its source emitted it. Nodes exchange *weighted batches*: a set of
items from one sub-stream together with the output weight computed by
Algorithm 1 (the ``(W_out, I)`` pairs the paper stores in ``Theta``).

A batch's payload is always a
:class:`~repro.core.columns.ColumnarBatch` — the records as
structure-of-arrays columns, which the hot paths aggregate with vector
ops. :class:`StreamItem` names one record's fields; no part of the
library builds or consumes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.columns import ColumnarBatch

__all__ = ["StreamItem", "WeightedBatch"]


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
            :class:`~repro.core.columns.ColumnarBatch`.
    """

    substream: str
    weight: float
    items: ColumnarBatch

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:  # NaN fails both sides
            raise ValueError(
                f"batch weight must be positive and finite, got {self.weight}"
            )
        if not isinstance(self.items, ColumnarBatch):
            raise TypeError(
                f"batch items must be a ColumnarBatch, got "
                f"{type(self.items).__name__}"
            )

    def __len__(self) -> int:
        return len(self.items)

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
