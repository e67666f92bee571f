"""Unit tests for topics and the broker surface."""

import pytest

from repro.broker.broker import Broker
from repro.broker.records import Record
from repro.broker.topic import Topic
from repro.errors import (
    ConfigurationError,
    ConsumerGroupError,
    TopicExistsError,
    UnknownPartitionError,
    UnknownTopicError,
)


def rec(value, key=None):
    return Record(key=key, value=value)


class TestTopic:
    def test_keyed_records_stick_to_partition(self):
        topic = Topic("t", partitions=4)
        partitions = {topic.partition_for("substream-A") for _ in range(20)}
        assert len(partitions) == 1

    def test_different_keys_spread(self):
        topic = Topic("t", partitions=8)
        partitions = {topic.partition_for(f"key-{i}") for i in range(100)}
        assert len(partitions) > 1

    def test_unkeyed_round_robin(self):
        topic = Topic("t", partitions=3)
        assert [topic.partition_for(None) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_append_and_read(self):
        topic = Topic("t", partitions=2)
        partition, offset = topic.append(rec("hello", key="k"))
        out = topic.read(partition, offset)
        assert out[0].value == "hello"

    def test_unknown_partition(self):
        topic = Topic("t", partitions=2)
        with pytest.raises(UnknownPartitionError):
            topic.read(5, 0)

    def test_needs_positive_partitions(self):
        with pytest.raises(ConfigurationError):
            Topic("t", partitions=0)

    def test_end_offsets(self):
        topic = Topic("t", partitions=2)
        topic.append(rec("a"), partition=0)
        topic.append(rec("b"), partition=0)
        topic.append(rec("c"), partition=1)
        assert topic.end_offsets() == {0: 2, 1: 1}


class TestBrokerTopics:
    def test_create_and_duplicate(self):
        broker = Broker()
        broker.create_topic("t")
        with pytest.raises(TopicExistsError):
            broker.create_topic("t")

    def test_ensure_topic_idempotent(self):
        broker = Broker()
        first = broker.ensure_topic("t", 2)
        second = broker.ensure_topic("t", 5)
        assert first is second
        assert second.partition_count == 2

    def test_unknown_topic_operations(self):
        broker = Broker()
        with pytest.raises(UnknownTopicError):
            broker.produce_batch("missing", [rec(1)])
        with pytest.raises(UnknownTopicError):
            broker.fetch("missing", 0, 0)

    def test_produce_fetch_roundtrip(self):
        broker = Broker()
        broker.create_topic("t")
        [(partition, offset)] = broker.produce_batch("t", [rec({"x": 1})])
        out = broker.fetch("t", partition, offset)
        assert out[0].value == {"x": 1}


class TestConsumerGroups:
    def test_join_assigns_partitions(self):
        broker = Broker()
        broker.create_topic("t", partitions=4)
        group = broker.join_group("g", "m1", ["t"])
        assert group.partitions_of("m1") == [("t", p) for p in range(4)]

    def test_rebalance_on_second_member(self):
        broker = Broker()
        broker.create_topic("t", partitions=4)
        broker.join_group("g", "m1", ["t"])
        group = broker.join_group("g", "m2", ["t"])
        assigned = group.partitions_of("m1") + group.partitions_of("m2")
        assert sorted(assigned) == [("t", p) for p in range(4)]
        assert len(group.partitions_of("m1")) == 2

    def test_generation_bumps(self):
        broker = Broker()
        broker.create_topic("t")
        g1 = broker.join_group("g", "m1", ["t"]).generation
        g2 = broker.join_group("g", "m2", ["t"]).generation
        assert g2 > g1

    def test_leave_rebalances(self):
        broker = Broker()
        broker.create_topic("t", partitions=2)
        broker.join_group("g", "m1", ["t"])
        broker.join_group("g", "m2", ["t"])
        broker.leave_group("g", "m2")
        group = broker.group("g")
        assert group.partitions_of("m1") == [("t", 0), ("t", 1)]

    def test_leave_unknown_member(self):
        broker = Broker()
        broker.create_topic("t")
        broker.join_group("g", "m1", ["t"])
        with pytest.raises(ConsumerGroupError):
            broker.leave_group("g", "ghost")

    def test_commit_and_committed(self):
        broker = Broker()
        broker.create_topic("t")
        broker.join_group("g", "m1", ["t"])
        assert broker.committed("g", "t", 0) is None
        broker.commit("g", "t", 0, 42)
        assert broker.committed("g", "t", 0) == 42

    def test_unknown_group(self):
        broker = Broker()
        with pytest.raises(ConsumerGroupError):
            broker.group("missing")
