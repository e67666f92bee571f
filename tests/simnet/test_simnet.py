"""Unit tests for the discrete-event network simulator."""

import pytest

from repro.errors import ClockError, ConfigurationError, NetworkError, SimulationError
from repro.simnet.clock import Clock
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.netem import PAPER_WAN, NetemConfig
from repro.simnet.network import Network
from repro.simnet.stats import LatencyRecorder, bandwidth_saving, network_snapshot


class TestClock:
    def test_events_fire_in_time_order(self):
        clock = Clock()
        fired = []
        clock.schedule(3.0, lambda: fired.append("c"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_fifo_tiebreak_at_same_time(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(1.0, lambda: fired.append(2))
        clock.run()
        assert fired == [1, 2]

    def test_cancelled_events_skipped(self):
        clock = Clock()
        fired = []
        event = clock.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        clock.run()
        assert fired == []

    def test_run_until_stops_and_anchors(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(5.0, lambda: fired.append("b"))
        clock.run_until(2.0)
        assert fired == ["a"]
        assert clock.now == 2.0

    def test_cascading_events(self):
        clock = Clock()
        fired = []

        def first():
            fired.append(clock.now)
            clock.schedule(2.0, lambda: fired.append(clock.now))

        clock.schedule(1.0, first)
        clock.run()
        assert fired == [1.0, 3.0]

    def test_scheduling_in_past_rejected(self):
        clock = Clock(start=10.0)
        with pytest.raises(ClockError):
            clock.schedule(-1.0, lambda: None)
        with pytest.raises(ClockError):
            clock.schedule_at(5.0, lambda: None)
        with pytest.raises(ClockError):
            clock.run_until(5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        clock = Clock()
        clock.schedule_at(1.0, lambda: None)
        with pytest.raises(ClockError):
            clock.schedule(bad, lambda: None)
        with pytest.raises(ClockError):
            clock.schedule_at(bad, lambda: None)
        with pytest.raises(ClockError):
            clock.run_until(bad)
        assert (clock.pending, clock.now) == (1, 0.0)

    def test_max_events_cap(self):
        clock = Clock()
        def reschedule():
            clock.schedule(1.0, reschedule)
        clock.schedule(1.0, reschedule)
        clock.run(max_events=5)
        assert clock.events_fired == 5


class TestNetem:
    def test_from_rtt_halves(self):
        config = NetemConfig.from_rtt(20.0, 1e9)
        assert config.delay_ms == 10.0
        assert config.delay_seconds == 0.01

    def test_serialization_delay(self):
        config = NetemConfig(delay_ms=0.0, rate_bps=8_000.0)
        assert config.serialization_delay(1000) == pytest.approx(1.0)

    def test_paper_wan_settings(self):
        assert PAPER_WAN["source_to_l1"].delay_ms == 10.0
        assert PAPER_WAN["l1_to_l2"].delay_ms == 20.0
        assert PAPER_WAN["l2_to_root"].delay_ms == 40.0
        assert all(c.rate_bps == 1e9 for c in PAPER_WAN.values())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetemConfig(delay_ms=-1.0, rate_bps=1.0)
        with pytest.raises(ConfigurationError):
            NetemConfig(delay_ms=0.0, rate_bps=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_and_rate_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            NetemConfig(delay_ms=bad, rate_bps=1.0)
        with pytest.raises(ConfigurationError):
            NetemConfig(delay_ms=0.0, rate_bps=bad)


class TestLink:
    def test_delivery_includes_all_delays(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(delay_ms=100.0, rate_bps=8_000.0))
        arrivals = []
        link.transfer(1000, "msg", lambda m: arrivals.append((clock.now, m)))
        clock.run()
        # serialization 1s + propagation 0.1s
        assert arrivals == [(1.1, "msg")]

    def test_fifo_queueing(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(delay_ms=0.0, rate_bps=8_000.0))
        arrivals = []
        link.transfer(1000, "a", lambda m: arrivals.append((clock.now, m)))
        link.transfer(1000, "b", lambda m: arrivals.append((clock.now, m)))
        clock.run()
        assert arrivals == [(1.0, "a"), (2.0, "b")]
        assert link.total_queueing_delay == pytest.approx(1.0)

    def test_byte_accounting(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(delay_ms=1.0, rate_bps=1e9))
        link.transfer(500, None, lambda m: None)
        link.transfer(250, None, lambda m: None)
        assert link.bytes_sent == 750
        assert link.messages_sent == 2
        link.reset_counters()
        assert link.bytes_sent == 0

    def test_utilization(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(delay_ms=0.0, rate_bps=8_000.0))
        link.transfer(500, None, lambda m: None)
        assert link.utilization(elapsed=1.0) == pytest.approx(0.5)

    def test_negative_size_rejected(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(delay_ms=0.0, rate_bps=1e9))
        with pytest.raises(NetworkError):
            link.transfer(-1, None, lambda m: None)


class TestHost:
    def test_service_time(self):
        clock = Clock()
        host = Host("h", clock, service_rate=100.0)
        done = []
        host.process(50, "job", lambda j: done.append(clock.now))
        clock.run()
        assert done == [0.5]

    def test_fifo_queueing_under_load(self):
        clock = Clock()
        host = Host("h", clock, service_rate=10.0)
        done = []
        host.process(10, "a", lambda j: done.append(clock.now))
        host.process(10, "b", lambda j: done.append(clock.now))
        assert host.queue_delay() == pytest.approx(2.0)  # before serving
        clock.run()
        assert done == [1.0, 2.0]
        assert host.queue_delay() == 0.0  # queue drained

    def test_counters_and_utilization(self):
        clock = Clock()
        host = Host("h", clock, service_rate=100.0)
        host.process(30, None, lambda j: None)
        clock.run()
        assert host.items_processed == 30
        assert host.utilization(elapsed=1.0) == pytest.approx(0.3)

    def test_validation(self):
        clock = Clock()
        with pytest.raises(ConfigurationError):
            Host("h", clock, service_rate=0.0)
        host = Host("h", clock, service_rate=1.0)
        with pytest.raises(ConfigurationError):
            host.process(-1, None, lambda j: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_service_rate_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Host("h", Clock(), service_rate=bad)


class TestNetwork:
    def _simple_network(self):
        network = Network()
        network.add_host("a", 1e6)
        network.add_host("b", 1e6)
        network.add_host("c", 1e6)
        network.add_link("a", "b", NetemConfig(delay_ms=10.0, rate_bps=1e9))
        network.add_link("b", "c", NetemConfig(delay_ms=10.0, rate_bps=1e9))
        return network

    def test_direct_send(self):
        network = self._simple_network()
        got = []
        network.send("a", "b", 100, "msg", lambda m: got.append(m))
        network.clock.run()
        assert got == ["msg"]

    def test_routing_shortest_path(self):
        network = self._simple_network()
        assert network.route("a", "c") == ["a", "b", "c"]

    def test_send_routed_multihop(self):
        network = self._simple_network()
        got = []
        network.send_routed("a", "c", 100, "msg", lambda m: got.append(network.clock.now))
        network.clock.run()
        assert len(got) == 1
        assert got[0] >= 0.02  # two propagation delays

    def test_no_route_raises(self):
        network = self._simple_network()
        network.add_host("island", 1.0)
        with pytest.raises(NetworkError):
            network.route("a", "island")

    def test_duplicate_host_and_link_rejected(self):
        network = self._simple_network()
        with pytest.raises(NetworkError):
            network.add_host("a", 1.0)
        with pytest.raises(NetworkError):
            network.add_link("a", "b", NetemConfig(1.0, 1e9))

    def test_total_bytes_and_reset(self):
        network = self._simple_network()
        network.send("a", "b", 123, None, lambda m: None)
        assert network.total_bytes_sent() == 123
        network.reset_counters()
        assert network.total_bytes_sent() == 0


class TestStats:
    def test_latency_recorder(self):
        recorder = LatencyRecorder()
        recorder.record(0.0, 1.0)
        recorder.record(0.0, 3.0)
        assert recorder.count == 2
        assert recorder.mean() == 2.0
        assert recorder.max() == 3.0
        assert recorder.percentile(50) == 1.0

    def test_latency_validation(self):
        recorder = LatencyRecorder()
        with pytest.raises(SimulationError):
            recorder.record(5.0, 1.0)
        with pytest.raises(SimulationError):
            recorder.mean()

    def test_bandwidth_saving(self):
        assert bandwidth_saving(100, 1000) == pytest.approx(90.0)
        assert bandwidth_saving(1000, 1000) == pytest.approx(0.0)
        with pytest.raises(SimulationError):
            bandwidth_saving(10, 0)

    def test_network_snapshot(self):
        network = Network()
        network.add_host("a", 10.0)
        network.add_host("b", 10.0)
        network.add_link("a", "b", NetemConfig(1.0, 1e9))
        network.send("a", "b", 100, None, lambda m: None)
        snapshot = network_snapshot(network)
        assert snapshot["links"]["a->b"]["bytes"] == 100.0
        assert "a" in snapshot["hosts"]
