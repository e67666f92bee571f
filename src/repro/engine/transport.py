"""Transports — how weighted batches move between tree nodes.

The engine's run loop is transport-agnostic: a node's output batches
are handed to a :class:`Transport`, and a node's interval input is
whatever :meth:`Transport.collect` returns. Two implementations:

* :class:`InProcessTransport` — plain per-node inboxes; batches move
  by direct callback. The statistical (accuracy) engine's transport.
* :class:`SimnetTransport` — the same inboxes fed over simulated WAN
  links: a send crosses the src→dst link (propagation + serialization
  + FIFO queueing) before the batch lands in the destination's inbox.
  The deployment engine's transport.

Both deliver batches in send order per destination, so a seeded run's
samples do not depend on which transport carried them.

A :class:`WeightedBatch` payload is a
:class:`~repro.core.columns.ColumnarBatch` and moves by reference —
four array pointers instead of N objects. Byte accounting
(``batch.total_bytes``, feeding link serialization and Fig. 7's
bandwidth series) reads the size column.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.items import WeightedBatch
from repro.errors import ConfigurationError

__all__ = [
    "Transport",
    "InProcessTransport",
    "SimnetTransport",
]


class Transport(Protocol):
    """Moves weighted batches from a node to a sampling node's inbox."""

    def register(self, node_name: str) -> None:
        """Declare a sampling node as a batch destination."""

    def send(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """Ship one weighted batch from ``src`` toward ``dst``."""

    def collect(self, dst: str) -> list[WeightedBatch]:
        """Drain and return the batches awaiting ``dst``, in order."""

    def has_pending(self) -> bool:
        """True while any registered destination has undrained batches."""

    def close(self) -> None:
        """Release per-node resources (inboxes)."""


class InProcessTransport:
    """Direct-callback delivery: one list-backed inbox per node."""

    def __init__(self) -> None:
        self._inboxes: dict[str, list[WeightedBatch]] = {}

    def register(self, node_name: str) -> None:
        """Create the node's inbox (idempotent)."""
        self._inboxes.setdefault(node_name, [])

    def send(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """Append the batch to the destination's inbox, by reference."""
        try:
            self._inboxes[dst].append(batch)
        except KeyError:
            raise ConfigurationError(
                f"send to unregistered node {dst!r}"
            ) from None

    def collect(self, dst: str) -> list[WeightedBatch]:
        """Drain the node's inbox, returning batches in send order."""
        if dst not in self._inboxes:
            raise ConfigurationError(
                f"collect from unregistered node {dst!r}"
            )
        batches, self._inboxes[dst] = self._inboxes[dst], []
        return batches

    def has_pending(self) -> bool:
        """True while any inbox holds undrained batches."""
        return any(self._inboxes.values())

    def close(self) -> None:
        """Drop every inbox."""
        self._inboxes.clear()


class SimnetTransport(InProcessTransport):
    """Per-node inboxes fed over simulated WAN links.

    A send crosses the ``src -> dst`` link of the placement network —
    paying propagation delay, serialization at the link's bandwidth
    and FIFO queueing behind earlier transfers — and the batch lands
    in the destination's inbox on delivery. Link byte counters feed
    the bandwidth experiments (Fig. 7).
    """

    def __init__(self, network) -> None:
        super().__init__()
        self._network = network

    def send(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """Cross the src→dst WAN link, then land in ``dst``'s inbox."""
        if dst not in self._inboxes:
            raise ConfigurationError(f"send to unregistered node {dst!r}")
        self._network.send(
            src, dst, batch.total_bytes, (dst, batch), self._land
        )

    def _land(self, delivery: tuple[str, WeightedBatch]) -> None:
        """A batch comes off its link into the destination's inbox."""
        dst, batch = delivery
        # The inbox is looked up on delivery: ``collect`` swaps in a
        # fresh list, and a batch still on the link belongs in that one.
        self._inboxes[dst].append(batch)
