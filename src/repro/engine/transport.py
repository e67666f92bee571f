"""Transports — how weighted batches move between tree nodes.

The engine's run loop is transport-agnostic: a node's output batches
are handed to a :class:`Transport`, and a node's interval input is
whatever :meth:`Transport.collect` returns. Three implementations
cover the paper's spectrum of realism:

* :class:`InProcessTransport` — plain per-node inboxes; batches move
  by direct callback. The statistical (accuracy) engine's transport.
* :class:`BrokerTransport` — every node ingests from its own pub/sub
  topic (one consumer group per node, as the paper's Kafka layer
  does); delivery is immediate but observable and replayable through
  the broker's offsets.
* :class:`SimnetBrokerTransport` — broker topics fed over simulated
  WAN links: a send crosses the src→dst link (propagation +
  serialization + FIFO queueing) before the record lands in the
  destination topic. The deployment engine's transport.

All three deliver batches in send order per destination, so a seeded
run produces identical samples on every transport (the cross-transport
parity tests assert this exactly).

A :class:`WeightedBatch` payload is a
:class:`~repro.core.columns.ColumnarBatch`. In process, batches move by
reference — four array pointers instead of N objects. Over the broker
and simnet the record value *is* the column set (column-wise, not
per-item), and byte accounting (``batch.total_bytes``, feeding link
serialization and Fig. 7's bandwidth series) reads the size column.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.records import Record, Serde
from repro.core.items import WeightedBatch
from repro.errors import ConfigurationError

__all__ = [
    "Transport",
    "InProcessTransport",
    "BrokerTransport",
    "SimnetBrokerTransport",
    "topic_for",
]


def topic_for(node_name: str) -> str:
    """The ingest topic carrying a sampling node's input batches."""
    return f"ingest-{node_name}"


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
        """Release per-node resources (consumers, inboxes)."""


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


class BrokerTransport:
    """Pub/sub delivery: one ingest topic + consumer group per node.

    Mirrors the paper's Kafka layer: node ``X`` polls topic
    ``ingest-X`` through consumer group ``group-X``. Records carry the
    batch's sub-stream as key and the transport clock's time as
    timestamp.

    ``serde`` selects how a batch lands in the topic: ``None`` (the
    in-process default) stores the live object by reference, while a
    :class:`~repro.broker.records.Serde` — typically
    :data:`~repro.broker.records.COLUMNAR_SERDE` — turns every record
    value into real bytes on produce and back on poll, the shape a
    multi-process broker deployment runs. The columnar serde moves
    whole column buffers instead of pickling per record, and a decoded
    batch preserves values, timestamps, sizes and therefore
    ``total_bytes`` exactly, so byte accounting is serde-invariant.
    """

    def __init__(
        self,
        broker: Broker | None = None,
        *,
        max_poll_records: int = 1_000_000,
        now: Callable[[], float] | None = None,
        serde: "Serde | None" = None,
    ) -> None:
        self.broker = broker if broker is not None else Broker("engine")
        self._max_poll_records = max_poll_records
        self._now = now if now is not None else (lambda: 0.0)
        self._serde = serde
        self._consumers: dict[str, Consumer] = {}

    def register(self, node_name: str) -> None:
        """Create the node's ingest topic and consumer (idempotent)."""
        if node_name in self._consumers:
            return
        topic = topic_for(node_name)
        self.broker.ensure_topic(topic)
        self._consumers[node_name] = Consumer(
            self.broker,
            group_id=f"group-{node_name}",
            topics=[topic],
            member_id=node_name,
            max_poll_records=self._max_poll_records,
        )

    def deliver(self, dst: str, batch: WeightedBatch) -> None:
        """Land one batch in the destination topic (the final hop)."""
        value = batch if self._serde is None else self._serde.serialize(batch)
        self.broker.produce(
            topic_for(dst),
            Record(key=batch.substream, value=value, timestamp=self._now()),
        )

    def send(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """Produce the batch straight to the destination topic."""
        self.deliver(dst, batch)

    def collect(self, dst: str) -> list[WeightedBatch]:
        """Poll the node's consumer group, decoding if a serde is set."""
        try:
            consumer = self._consumers[dst]
        except KeyError:
            raise ConfigurationError(
                f"collect from unregistered node {dst!r}"
            ) from None
        if self._serde is None:
            return [record.value for record in consumer.poll()]
        return [self._serde.deserialize(record.value) for record in consumer.poll()]

    def has_pending(self) -> bool:
        """True while any consumer lags behind its topic's end offset."""
        for node_name, consumer in self._consumers.items():
            topic = topic_for(node_name)
            for partition, end in self.broker.end_offsets(topic).items():
                if consumer.position(topic, partition) < end:
                    return True
        return False

    def close(self) -> None:
        """Close every consumer and forget the registrations."""
        for consumer in self._consumers.values():
            consumer.close()
        self._consumers.clear()


class SimnetBrokerTransport(BrokerTransport):
    """Broker topics fed over simulated WAN links.

    A send crosses the ``src -> dst`` link of the placement network —
    paying propagation delay, serialization at the link's bandwidth
    and FIFO queueing behind earlier transfers — and the record is
    produced to the destination topic on delivery. Record timestamps
    therefore reflect simulated arrival time, and link byte counters
    feed the bandwidth experiments (Fig. 7).
    """

    def __init__(
        self,
        network,
        broker: Broker | None = None,
        *,
        max_poll_records: int = 1_000_000,
    ) -> None:
        super().__init__(
            broker,
            max_poll_records=max_poll_records,
            now=lambda: network.clock.now,
        )
        self._network = network

    def send(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """Cross the src→dst WAN link, then produce on delivery."""
        self._network.send(
            src,
            dst,
            batch.total_bytes,
            batch,
            lambda delivered: self.deliver(dst, delivered),
        )

