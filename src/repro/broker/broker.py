"""The broker: topic management plus consumer-group coordination.

One :class:`Broker` models a Kafka cluster's logical surface: create
topics, produce, fetch, and coordinate consumer groups
(member registration, partition assignment, committed offsets). The
paper uses one Kafka cluster to carry the inter-layer topics of the
edge topology.
"""

from __future__ import annotations

from typing import Iterable

from repro.broker.records import ConsumedRecord, Record
from repro.broker.topic import Topic
from repro.errors import (
    ConsumerGroupError,
    TopicExistsError,
    UnknownTopicError,
)

__all__ = ["Broker", "GroupState"]


class GroupState:
    """Book-keeping for one consumer group on one broker.

    Tracks members, the partition assignment produced by the trivial
    range assignor, committed offsets, and a generation counter bumped
    on every rebalance (used to fence zombie members, as in Kafka).
    """

    def __init__(self, group_id: str) -> None:
        self.group_id = group_id
        self.members: list[str] = []
        self.assignment: dict[str, list[tuple[str, int]]] = {}
        self.committed: dict[tuple[str, int], int] = {}
        self.generation = 0
        self.subscribed_topics: set[str] = set()

    def partitions_of(self, member_id: str) -> list[tuple[str, int]]:
        """The (topic, partition) pairs assigned to a member."""
        if member_id not in self.members:
            raise ConsumerGroupError(
                f"member {member_id!r} is not in group {self.group_id!r}"
            )
        return list(self.assignment.get(member_id, []))


class Broker:
    """An in-memory broker: topics + groups + produce/fetch."""

    def __init__(self, broker_id: str = "broker-0") -> None:
        self.broker_id = broker_id
        self._topics: dict[str, Topic] = {}
        self._groups: dict[str, GroupState] = {}

    # ------------------------------------------------------------------
    # Topic management
    # ------------------------------------------------------------------
    def create_topic(self, name: str, partitions: int = 1) -> Topic:
        """Create a topic; raises if it already exists."""
        if name in self._topics:
            raise TopicExistsError(f"topic {name!r} already exists")
        topic = Topic(name, partitions)
        self._topics[name] = topic
        return topic

    def ensure_topic(self, name: str, partitions: int = 1) -> Topic:
        """Create-if-absent (auto-create semantics)."""
        if name not in self._topics:
            return self.create_topic(name, partitions)
        return self._topics[name]

    def topic(self, name: str) -> Topic:
        """Look up a topic by name."""
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(f"no such topic: {name!r}") from None

    # ------------------------------------------------------------------
    # Produce / fetch
    # ------------------------------------------------------------------
    def produce_batch(
        self, topic: str, records: Iterable[Record]
    ) -> list[tuple[int, int]]:
        """Append many records."""
        return self.topic(topic).append_batch(records)

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int | None = None,
    ) -> list[ConsumedRecord]:
        """Read records from a partition starting at an offset."""
        return self.topic(topic).read(partition, offset, max_records)

    def end_offsets(self, topic: str) -> dict[int, int]:
        """High watermarks of a topic's partitions."""
        return self.topic(topic).end_offsets()

    # ------------------------------------------------------------------
    # Consumer groups
    # ------------------------------------------------------------------
    def join_group(
        self, group_id: str, member_id: str, topics: Iterable[str]
    ) -> GroupState:
        """Register a member and rebalance the group's assignment."""
        group = self._groups.setdefault(group_id, GroupState(group_id))
        if member_id not in group.members:
            group.members.append(member_id)
        group.subscribed_topics.update(topics)
        self._rebalance(group)
        return group

    def leave_group(self, group_id: str, member_id: str) -> None:
        """Deregister a member and rebalance."""
        group = self._group(group_id)
        if member_id not in group.members:
            raise ConsumerGroupError(
                f"member {member_id!r} is not in group {group_id!r}"
            )
        group.members.remove(member_id)
        self._rebalance(group)

    def commit(
        self, group_id: str, topic: str, partition: int, offset: int
    ) -> None:
        """Record a committed offset for a group."""
        group = self._group(group_id)
        group.committed[(topic, partition)] = offset

    def committed(self, group_id: str, topic: str, partition: int) -> int | None:
        """The committed offset, or ``None`` if never committed."""
        group = self._group(group_id)
        return group.committed.get((topic, partition))

    def group(self, group_id: str) -> GroupState:
        """Public accessor for a group's state."""
        return self._group(group_id)

    def _group(self, group_id: str) -> GroupState:
        try:
            return self._groups[group_id]
        except KeyError:
            raise ConsumerGroupError(f"no such group: {group_id!r}") from None

    def _rebalance(self, group: GroupState) -> None:
        """Range-assign all subscribed partitions across members."""
        group.generation += 1
        group.assignment = {member: [] for member in group.members}
        if not group.members:
            return
        all_partitions: list[tuple[str, int]] = []
        for topic_name in sorted(group.subscribed_topics):
            if topic_name in self._topics:
                topic = self._topics[topic_name]
                all_partitions.extend(
                    (topic_name, p) for p in range(topic.partition_count)
                )
        members = sorted(group.members)
        for index, partition in enumerate(all_partitions):
            owner = members[index % len(members)]
            group.assignment[owner].append(partition)
