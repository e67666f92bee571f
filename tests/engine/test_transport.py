"""Unit tests for the transport implementations."""

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.engine.transport import InProcessTransport, SimnetTransport
from repro.errors import ConfigurationError, NetworkError
from repro.simnet.netem import NetemConfig
from repro.simnet.network import Network


def batch(substream="a", weight=1.0, n=3):
    return WeightedBatch(substream, weight, ColumnarBatch.single(substream, range(n)))


def two_host_network(config=None):
    network = Network()
    network.add_host("edge", 1e9)
    network.add_host("root", 1e9)
    network.add_link(
        "edge", "root", config or NetemConfig.from_rtt(20.0, 1e9)
    )
    return network


class InProcessHarness:
    """An in-process transport; sends land at once."""

    def __init__(self):
        self.transport = InProcessTransport()

    def settle(self):
        pass


class SimnetHarness:
    """A simnet transport whose sends cross links from ``src``."""

    def __init__(self):
        self.network = Network()
        self.network.add_host("src", 1e9)
        for name in ("node", "left", "right"):
            self.network.add_host(name, 1e9)
            self.network.add_link(
                "src", name, NetemConfig.from_rtt(20.0, 1e9)
            )
        self.transport = SimnetTransport(self.network)

    def settle(self):
        """Run the clock until every batch on a link is delivered."""
        self.network.clock.run()


@pytest.fixture(
    params=[InProcessHarness, SimnetHarness], ids=["inprocess", "simnet"]
)
def harness(request):
    return request.param()


class TestTransportContract:
    """Behaviour both transports share, once sent batches have landed."""

    def test_send_collect_preserves_order(self, harness):
        transport = harness.transport
        transport.register("node")
        first, second = batch("a"), batch("b")
        transport.send("src", "node", first)
        transport.send("src", "node", second)
        harness.settle()
        collected = transport.collect("node")
        assert [b.substream for b in collected] == ["a", "b"]

    def test_collect_drains(self, harness):
        transport = harness.transport
        transport.register("node")
        transport.send("src", "node", batch())
        harness.settle()
        assert transport.has_pending()
        transport.collect("node")
        assert not transport.has_pending()
        assert transport.collect("node") == []

    def test_unregistered_destination_rejected(self, harness):
        transport = harness.transport
        with pytest.raises(ConfigurationError):
            transport.collect("ghost")
        with pytest.raises(ConfigurationError):
            transport.send("src", "ghost", batch())

    def test_register_is_idempotent(self, harness):
        """Re-registering a node keeps the batches already waiting."""
        transport = harness.transport
        transport.register("node")
        transport.send("src", "node", batch("a"))
        harness.settle()
        transport.register("node")
        assert [b.substream for b in transport.collect("node")] == ["a"]

    def test_destinations_are_isolated(self, harness):
        transport = harness.transport
        transport.register("left")
        transport.register("right")
        transport.send("src", "left", batch("a"))
        transport.send("src", "right", batch("b"))
        transport.send("src", "left", batch("c"))
        harness.settle()
        assert [b.substream for b in transport.collect("right")] == ["b"]
        assert [b.substream for b in transport.collect("left")] == ["a", "c"]

    def test_batches_move_by_reference(self, harness):
        transport = harness.transport
        transport.register("node")
        sent = batch("a", weight=2.5, n=4)
        transport.send("src", "node", sent)
        harness.settle()
        assert transport.collect("node")[0] is sent

    def test_close_forgets_registrations(self, harness):
        transport = harness.transport
        transport.register("node")
        transport.send("src", "node", batch())
        harness.settle()
        transport.close()
        assert not transport.has_pending()
        with pytest.raises(ConfigurationError):
            transport.collect("node")


class TestSimnetTransport:
    def test_delivery_waits_for_link(self):
        network = two_host_network()
        transport = SimnetTransport(network)
        transport.register("root")
        transport.send("edge", "root", batch())
        # Nothing lands until the clock advances past the link delay.
        assert not transport.has_pending()
        assert transport.collect("root") == []
        network.clock.run()
        assert network.clock.now > 0
        assert transport.has_pending()

    def test_bytes_accounted_on_link(self):
        network = two_host_network()
        transport = SimnetTransport(network)
        transport.register("root")
        sent = batch(n=5)
        transport.send("edge", "root", sent)
        network.clock.run()
        assert network.link("edge", "root").bytes_sent == sent.total_bytes

    def test_link_delivers_in_send_order(self):
        network = two_host_network()
        transport = SimnetTransport(network)
        transport.register("root")
        for name in ("a", "b", "c"):
            transport.send("edge", "root", batch(name))
        network.clock.run()
        assert [b.substream for b in transport.collect("root")] == [
            "a", "b", "c",
        ]

    def test_unregistered_destination_fails_before_the_link(self):
        """A send to a node with no inbox raises at once: the link is
        not charged and nothing is left to fail inside the clock."""
        network = two_host_network()
        transport = SimnetTransport(network)
        with pytest.raises(ConfigurationError):
            transport.send("edge", "root", batch())
        assert network.link("edge", "root").bytes_sent == 0
        network.clock.run()
        assert network.clock.now == 0

    def test_batch_on_the_link_at_collect_lands_in_the_next(self):
        """``collect`` swaps in a fresh inbox; a batch still in flight
        when it runs is delivered into that one, not the drained list."""
        network = two_host_network()
        transport = SimnetTransport(network)
        transport.register("root")
        transport.send("edge", "root", batch("early"))
        network.clock.run()
        transport.send("edge", "root", batch("late"))
        assert [b.substream for b in transport.collect("root")] == ["early"]
        network.clock.run()
        assert [b.substream for b in transport.collect("root")] == ["late"]

    def test_a_registered_node_without_a_link_is_a_network_error(self):
        """Links are one-way uplinks: the root cannot send down."""
        network = two_host_network()
        transport = SimnetTransport(network)
        transport.register("edge")
        with pytest.raises(NetworkError, match="no link root->edge"):
            transport.send("root", "edge", batch())
        assert network.total_bytes_sent() == 0
        assert network.clock.pending == 0

    def test_inbox_order_is_arrival_order_across_links(self):
        """Two children on links of different delay: the batch sent
        first over the slow link lands after the fast one's."""
        network = Network()
        for host in ("slow", "fast", "root"):
            network.add_host(host, 1e9)
        network.add_link("slow", "root", NetemConfig(delay_ms=50.0,
                                                     rate_bps=1e9))
        network.add_link("fast", "root", NetemConfig(delay_ms=5.0,
                                                     rate_bps=1e9))
        transport = SimnetTransport(network)
        transport.register("root")
        transport.send("slow", "root", batch("from-slow"))
        transport.send("fast", "root", batch("from-fast"))
        network.clock.run()
        assert [b.substream for b in transport.collect("root")] == [
            "from-fast", "from-slow",
        ]


class TestSimnetLinkConditions:
    """Each batch lands after queueing, serialization and propagation,
    on every link the deployment experiments shape."""

    @pytest.mark.parametrize("rate_bps", [1e6, 1e8, 1e9])
    @pytest.mark.parametrize("rtt_ms", [0.0, 40.0, 160.0])
    def test_back_to_back_batches_land_at_their_link_times(
        self, rtt_ms, rate_bps
    ):
        config = NetemConfig.from_rtt(rtt_ms, rate_bps)
        network = two_host_network(config)
        transport = SimnetTransport(network)
        transport.register("root")
        sent = [batch("a", n=4), batch("b", n=9)]
        for each in sent:
            transport.send("edge", "root", each)
        wire = 0.0
        for each in sent:
            # The second batch queues behind the first on the wire.
            wire += config.serialization_delay(each.total_bytes)
            arrival = wire + config.delay_seconds
            network.clock.run_until(arrival - 1e-12)
            assert transport.collect("root") == []
            network.clock.run_until(arrival)
            assert transport.collect("root") == [each]

    @pytest.mark.parametrize("loss", [0.1, 0.5, 0.9])
    def test_a_lossy_link_delivers_the_survivors_in_order(self, loss):
        network = two_host_network(NetemConfig.from_rtt(20.0, 1e9, loss))
        transport = SimnetTransport(network)
        transport.register("root")
        sent = [batch(str(i)) for i in range(200)]
        for each in sent:
            transport.send("edge", "root", each)
        network.clock.run()
        landed = transport.collect("root")
        link = network.link("edge", "root")
        # Dropped batches still burned their wire bytes.
        assert link.bytes_sent == sum(b.total_bytes for b in sent)
        assert link.messages_dropped == len(sent) - len(landed)
        assert 0 < len(landed) < len(sent)
        assert [b.substream for b in landed] == sorted(
            (b.substream for b in landed), key=int
        )
