"""Runtime: drive a topology from broker topics.

The runtime owns a consumer per source node and a producer for sinks.
Each :meth:`poll_once` round fetches records, injects them into the
sources (advancing stream time from record timestamps), and punctuates
the topology so interval-closing processors can emit what they hold. This is
the single-threaded analogue of a Kafka Streams application instance.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.producer import Producer
from repro.errors import PipelineError
from repro.streams.topology import Topology

__all__ = ["StreamsRuntime"]

_app_ids = itertools.count()


class StreamsRuntime:
    """Executes one topology against one broker."""

    def __init__(
        self,
        broker: Broker,
        topology: Topology,
        *,
        application_id: str | None = None,
        max_poll_records: int = 500,
    ) -> None:
        self._broker = broker
        self._topology = topology
        self._app_id = application_id or f"streams-app-{next(_app_ids)}"
        self._producer = Producer(broker)
        self._consumers: list[tuple[Consumer, Any]] = []
        for index, source in enumerate(topology.sources):
            consumer = Consumer(
                broker,
                group_id=self._app_id,
                topics=source.topics,
                member_id=f"{self._app_id}-member-{index}",
                max_poll_records=max_poll_records,
            )
            self._consumers.append((consumer, source))
        topology.attach_emit_hook(self._emit)
        topology.init_all()
        self._stream_time = 0.0
        self._closed = False

    @property
    def stream_time(self) -> float:
        """Largest record timestamp observed so far."""
        return self._stream_time

    def _emit(self, topic: str, key: Any, value: Any) -> None:
        self._broker.ensure_topic(topic)
        self._producer.send(
            topic, value, key=key, timestamp=self._stream_time
        )
        self._producer.flush()

    def poll_once(self) -> int:
        """One poll round; returns the number of records processed."""
        processed = 0
        for consumer, source in self._consumers:
            for record in consumer.poll():
                self._stream_time = max(self._stream_time, record.timestamp)
                source.context.stream_time = record.timestamp
                source.process(record.key, record.value)
                processed += 1
        self._topology.punctuate_all(self._stream_time)
        return processed

    def run_to_completion(self, max_rounds: int = 10_000) -> int:
        """Poll until no source has new records; returns total processed.

        Raises :class:`~repro.errors.PipelineError` if ``max_rounds``
        polls leave records unread, instead of returning a truncated
        count.
        """
        total = 0
        for _ in range(max_rounds):
            processed = self.poll_once()
            total += processed
            if processed == 0:
                return total
        lag = self._lag()
        if lag:
            raise PipelineError(
                f"{self._app_id}: {lag} records still unread after "
                f"{max_rounds} poll rounds (raise max_rounds or "
                f"max_poll_records)"
            )
        return total

    def _lag(self) -> int:
        """Records in the source topics that no poll has returned yet."""
        return sum(
            self._broker.end_offsets(topic)[partition]
            - consumer.position(topic, partition)
            for consumer, _source in self._consumers
            for topic, partition in consumer.assignment
        )

    def advance_stream_time(self, stream_time: float) -> None:
        """Manually advance time (flushes windows with no new data)."""
        self._stream_time = max(self._stream_time, stream_time)
        self._topology.punctuate_all(self._stream_time)

    def close(self) -> None:
        """Commit offsets, leave groups, close processors."""
        if self._closed:
            return
        for consumer, _source in self._consumers:
            consumer.close()
        self._topology.close_all()
        self._closed = True

