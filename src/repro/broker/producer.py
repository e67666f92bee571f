"""Producer client for the broker substrate.

Mirrors the shape of a Kafka producer: buffered sends with linger-style
batching and flush.
"""

from __future__ import annotations

from typing import Any

from repro.broker.broker import Broker
from repro.broker.records import Record
from repro.errors import ConfigurationError

__all__ = ["Producer"]


class Producer:
    """A buffering producer bound to one broker.

    Records accumulate in a per-topic buffer and are appended to the
    broker when the buffer reaches ``batch_size`` or on :meth:`flush`.
    """

    def __init__(self, broker: Broker, *, batch_size: int = 1) -> None:
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self._broker = broker
        self._batch_size = batch_size
        self._buffers: dict[str, list[Record]] = {}

    def send(
        self,
        topic: str,
        value: Any,
        *,
        key: str | None = None,
        timestamp: float = 0.0,
    ) -> None:
        """Buffer one record for delivery."""
        buffer = self._buffers.setdefault(topic, [])
        buffer.append(Record(key=key, value=value, timestamp=timestamp))
        if len(buffer) >= self._batch_size:
            self._deliver(topic)

    def flush(self) -> None:
        """Deliver every buffered record immediately."""
        for topic in list(self._buffers):
            self._deliver(topic)

    def _deliver(self, topic: str) -> None:
        buffer = self._buffers.get(topic)
        if not buffer:
            return
        batch, self._buffers[topic] = buffer, []
        self._broker.produce_batch(topic, batch)
