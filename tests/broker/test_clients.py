"""Unit tests for the producer and consumer clients."""

import pytest

from repro.broker.broker import Broker
from repro.broker.consumer import Consumer
from repro.broker.producer import Producer
from repro.errors import ConfigurationError, ConsumerGroupError


class TestProducer:
    def test_unbatched_send_is_immediate(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker)
        producer.send("t", "hello")
        assert broker.fetch("t", 0, 0)[0].value == "hello"

    def test_batching_defers_until_full(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker, batch_size=3)
        producer.send("t", 1)
        producer.send("t", 2)
        assert broker.end_offsets("t")[0] == 0
        producer.send("t", 3)
        assert broker.end_offsets("t")[0] == 3

    def test_flush_delivers_partial_batches(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker, batch_size=100)
        producer.send("t", "x")
        assert broker.end_offsets("t")[0] == 0
        producer.flush()
        assert broker.end_offsets("t")[0] == 1

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            Producer(Broker(), batch_size=0)


class TestConsumer:
    def test_poll_reads_from_assignment(self):
        broker = Broker()
        broker.create_topic("t", partitions=2)
        producer = Producer(broker)
        for i in range(10):
            producer.send("t", i, key=f"k{i}")
        consumer = Consumer(broker, "g", ["t"])
        values = sorted(r.value for r in consumer.poll())
        assert values == list(range(10))

    def test_poll_resumes_after_position(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker)
        producer.send("t", "a")
        consumer = Consumer(broker, "g", ["t"])
        assert [r.value for r in consumer.poll()] == ["a"]
        assert consumer.poll() == []
        producer.send("t", "b")
        assert [r.value for r in consumer.poll()] == ["b"]

    def test_commit_restores_position_for_new_member(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker)
        for i in range(5):
            producer.send("t", i)
        first = Consumer(broker, "g", ["t"], member_id="m1")
        first.poll()
        first.close()  # commits offset 5 and leaves
        producer.send("t", 99)
        second = Consumer(broker, "g", ["t"], member_id="m2")
        assert [r.value for r in second.poll()] == [99]

    def test_two_members_split_partitions(self):
        broker = Broker()
        broker.create_topic("t", partitions=4)
        c1 = Consumer(broker, "g", ["t"], member_id="a")
        c2 = Consumer(broker, "g", ["t"], member_id="b")
        assert len(c1.assignment) == 2
        assert len(c2.assignment) == 2
        assert set(c1.assignment).isdisjoint(c2.assignment)

    def test_closed_consumer_rejects_poll(self):
        broker = Broker()
        broker.create_topic("t")
        consumer = Consumer(broker, "g", ["t"])
        consumer.close()
        with pytest.raises(ConsumerGroupError):
            consumer.poll()

    def test_close_leaves_the_group(self):
        broker = Broker()
        broker.create_topic("t")
        consumer = Consumer(broker, "g", ["t"])
        assert consumer.poll() == []
        consumer.close()
        assert broker.group("g").members == []

    def test_max_poll_records(self):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker)
        for i in range(10):
            producer.send("t", i)
        consumer = Consumer(broker, "g", ["t"], max_poll_records=4)
        assert len(consumer.poll()) == 4
        assert len(consumer.poll()) == 4
        assert len(consumer.poll()) == 2
