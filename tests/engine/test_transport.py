"""Unit tests for the transport implementations."""

import pytest

from repro.broker.records import COLUMNAR_SERDE
from repro.core.items import StreamItem, WeightedBatch
from repro.engine.transport import (
    BrokerTransport,
    InProcessTransport,
    SimnetBrokerTransport,
    topic_for,
)
from repro.errors import ConfigurationError
from repro.simnet.netem import NetemConfig
from repro.simnet.network import Network


def batch(substream="a", weight=1.0, n=3):
    return WeightedBatch(
        substream, weight, [StreamItem(substream, float(i)) for i in range(n)]
    )


@pytest.mark.parametrize(
    "transport_factory",
    [InProcessTransport, BrokerTransport],
    ids=["inprocess", "broker"],
)
class TestTransportContract:
    """Behaviour every non-simulated transport must share."""

    def test_send_collect_preserves_order(self, transport_factory):
        transport = transport_factory()
        transport.register("node")
        first, second = batch("a"), batch("b")
        transport.send("src", "node", first)
        transport.send("src", "node", second)
        collected = transport.collect("node")
        assert [b.substream for b in collected] == ["a", "b"]

    def test_collect_drains(self, transport_factory):
        transport = transport_factory()
        transport.register("node")
        transport.send("src", "node", batch())
        assert transport.has_pending()
        transport.collect("node")
        assert not transport.has_pending()
        assert transport.collect("node") == []

    def test_unregistered_destination_rejected(self, transport_factory):
        transport = transport_factory()
        with pytest.raises(ConfigurationError):
            transport.collect("ghost")

    def test_register_is_idempotent(self, transport_factory):
        """Re-registering a node keeps the batches already waiting."""
        transport = transport_factory()
        transport.register("node")
        transport.send("src", "node", batch("a"))
        transport.register("node")
        assert [b.substream for b in transport.collect("node")] == ["a"]

    def test_destinations_are_isolated(self, transport_factory):
        transport = transport_factory()
        transport.register("left")
        transport.register("right")
        transport.send("src", "left", batch("a"))
        transport.send("src", "right", batch("b"))
        transport.send("src", "left", batch("c"))
        assert [b.substream for b in transport.collect("right")] == ["b"]
        assert [b.substream for b in transport.collect("left")] == ["a", "c"]

    def test_batch_arrives_intact(self, transport_factory):
        transport = transport_factory()
        transport.register("node")
        sent = batch("a", weight=2.5, n=4)
        transport.send("src", "node", sent)
        [got] = transport.collect("node")
        assert (got.substream, got.weight) == ("a", 2.5)
        assert [item.value for item in got] == [0.0, 1.0, 2.0, 3.0]
        assert got.total_bytes == sent.total_bytes

    def test_close_forgets_registrations(self, transport_factory):
        transport = transport_factory()
        transport.register("node")
        transport.send("src", "node", batch())
        transport.close()
        assert not transport.has_pending()
        with pytest.raises(ConfigurationError):
            transport.collect("node")


class TestInProcessTransport:
    def test_send_to_unregistered_node_rejected(self):
        with pytest.raises(ConfigurationError):
            InProcessTransport().send("src", "ghost", batch())

    def test_batches_move_by_reference(self):
        transport = InProcessTransport()
        transport.register("node")
        sent = batch()
        transport.send("src", "node", sent)
        assert transport.collect("node")[0] is sent


class TestBrokerTransport:
    def test_batches_ride_topics(self):
        transport = BrokerTransport()
        transport.register("root")
        transport.send("l2-0", "root", batch())
        assert topic_for("root") in transport.broker.topics()
        assert transport.broker.end_offsets(topic_for("root")) == {0: 1}

    def test_timestamps_come_from_clock(self):
        time = {"now": 7.5}
        transport = BrokerTransport(now=lambda: time["now"])
        transport.register("root")
        transport.send("l2-0", "root", batch())
        record = transport.broker.fetch(topic_for("root"), 0, 0)[0]
        assert record.timestamp == 7.5

    def test_record_key_is_the_substream(self):
        transport = BrokerTransport()
        transport.register("root")
        transport.send("l2-0", "root", batch("gas"))
        record = transport.broker.fetch(topic_for("root"), 0, 0)[0]
        assert record.key == "gas"

    def test_each_node_polls_through_its_own_group(self):
        transport = BrokerTransport()
        transport.register("root")
        transport.register("l2-0")
        transport.send("l3-0", "l2-0", batch())
        assert transport.collect("l2-0")
        # Closing commits each consumer's position under group-<node>.
        transport.close()
        broker = transport.broker
        assert broker.committed("group-l2-0", topic_for("l2-0"), 0) == 1
        assert broker.consumer_lag("group-root", topic_for("root")) == {0: 0}

    def test_pending_tracks_every_node(self):
        transport = BrokerTransport()
        transport.register("a")
        transport.register("b")
        transport.send("src", "a", batch())
        transport.send("src", "b", batch())
        transport.collect("a")
        assert transport.has_pending()
        transport.collect("b")
        assert not transport.has_pending()

    def test_columnar_serde_stores_bytes_and_round_trips(self):
        transport = BrokerTransport(serde=COLUMNAR_SERDE)
        transport.register("root")
        sent = batch("a", weight=4.0, n=5)
        transport.send("l2-0", "root", sent)
        record = transport.broker.fetch(topic_for("root"), 0, 0)[0]
        assert isinstance(record.value, (bytes, bytearray))
        [got] = transport.collect("root")
        assert got is not sent
        assert (got.substream, got.weight) == ("a", 4.0)
        assert [item.value for item in got] == [item.value for item in sent]
        assert got.total_bytes == sent.total_bytes


class TestSimnetBrokerTransport:
    def make_network(self):
        network = Network()
        network.add_host("edge", 1e9)
        network.add_host("root", 1e9)
        network.add_link("edge", "root", NetemConfig.from_rtt(20.0, 1e9))
        return network

    def test_delivery_waits_for_link(self):
        network = self.make_network()
        transport = SimnetBrokerTransport(network)
        transport.register("root")
        transport.send("edge", "root", batch())
        # Nothing lands until the clock advances past the link delay.
        assert transport.broker.end_offsets(topic_for("root")) == {0: 0}
        network.clock.run()
        assert transport.broker.end_offsets(topic_for("root")) == {0: 1}
        record = transport.broker.fetch(topic_for("root"), 0, 0)[0]
        assert record.timestamp == pytest.approx(network.clock.now)

    def test_bytes_accounted_on_link(self):
        network = self.make_network()
        transport = SimnetBrokerTransport(network)
        transport.register("root")
        sent = batch(n=5)
        transport.send("edge", "root", sent)
        network.clock.run()
        assert network.link("edge", "root").bytes_sent == sent.total_bytes

    def test_link_delivers_in_send_order(self):
        network = self.make_network()
        transport = SimnetBrokerTransport(network)
        transport.register("root")
        for name in ("a", "b", "c"):
            transport.send("edge", "root", batch(name))
        network.clock.run()
        assert [b.substream for b in transport.collect("root")] == [
            "a", "b", "c",
        ]

    def test_pending_only_after_delivery(self):
        network = self.make_network()
        transport = SimnetBrokerTransport(network)
        transport.register("root")
        transport.send("edge", "root", batch())
        assert not transport.has_pending()
        network.clock.run()
        assert transport.has_pending()
