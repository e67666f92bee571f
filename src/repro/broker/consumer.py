"""Consumer client with group membership and offset management.

Mirrors the Kafka consumer loop used by the paper's Pub/Sub module:
subscribe to topics, poll batches of records from the assigned
partitions, and commit offsets. Assignment is delegated to the broker's
group coordinator; a consumer re-syncs its assignment on every poll so
rebalances take effect at the next poll boundary, as in Kafka.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.broker.broker import Broker
from repro.broker.records import ConsumedRecord
from repro.errors import ConsumerGroupError

__all__ = ["Consumer"]

_member_counter = itertools.count()


class Consumer:
    """A polling consumer bound to one broker and one group."""

    def __init__(
        self,
        broker: Broker,
        group_id: str,
        topics: Iterable[str],
        *,
        member_id: str | None = None,
        max_poll_records: int = 500,
    ) -> None:
        if max_poll_records <= 0:
            raise ConsumerGroupError(
                f"max_poll_records must be >= 1, got {max_poll_records}"
            )
        self._broker = broker
        self._group_id = group_id
        self._member_id = member_id or f"consumer-{next(_member_counter)}"
        self._topics = list(topics)
        self._max_poll = max_poll_records
        self._positions: dict[tuple[str, int], int] = {}
        self._closed = False
        broker.join_group(group_id, self._member_id, self._topics)

    @property
    def assignment(self) -> list[tuple[str, int]]:
        """The (topic, partition) pairs currently assigned."""
        group = self._broker.group(self._group_id)
        return group.partitions_of(self._member_id)

    def position(self, topic: str, partition: int) -> int:
        """The next offset this consumer will read for a partition."""
        key = (topic, partition)
        if key not in self._positions:
            committed = self._broker.committed(self._group_id, topic, partition)
            self._positions[key] = committed if committed is not None else 0
        return self._positions[key]

    def poll(self) -> list[ConsumedRecord]:
        """Fetch up to ``max_poll_records`` across assigned partitions."""
        if self._closed:
            raise ConsumerGroupError("consumer is closed")
        out: list[ConsumedRecord] = []
        budget = self._max_poll
        for topic, partition in self.assignment:
            if budget <= 0:
                break
            offset = self.position(topic, partition)
            records = self._broker.fetch(topic, partition, offset, budget)
            if records:
                self._positions[(topic, partition)] = records[-1].offset + 1
                out.extend(records)
                budget -= len(records)
        return out

    def commit(self) -> None:
        """Commit the current positions for all touched partitions."""
        for (topic, partition), offset in self._positions.items():
            self._broker.commit(self._group_id, topic, partition, offset)

    def close(self) -> None:
        """Commit, leave the group, and release the assignment."""
        if self._closed:
            return
        self.commit()
        self._broker.leave_group(self._group_id, self._member_id)
        self._closed = True
