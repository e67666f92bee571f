"""Unit tests for the discrete-event network simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClockError, ConfigurationError, NetworkError, SimulationError
from repro.simnet.clock import Clock
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.netem import PAPER_WAN, NetemConfig
from repro.simnet.network import Network
from repro.simnet.stats import LatencyRecorder, bandwidth_saving


class TestClock:
    def test_events_fire_in_time_order(self):
        clock = Clock()
        fired = []
        clock.schedule(3.0, fired.append, "c")
        clock.schedule(1.0, fired.append, "a")
        clock.schedule(2.0, fired.append, "b")
        clock.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_fifo_tiebreak_at_same_time(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, fired.append, 1)
        clock.schedule(1.0, fired.append, 2)
        clock.run()
        assert fired == [1, 2]

    def test_entry_carries_its_argument(self):
        """An event is ``(time, seq, fn, arg)``; firing calls ``fn(arg)``."""
        clock = Clock()
        payload = object()
        got = []
        clock.schedule_at(1.0, got.append, payload)
        assert clock._queue == [(1.0, 0, got.append, payload)]
        assert clock.step() is True
        assert got == [payload] and got[0] is payload
        assert clock.step() is False

    def test_run_until_stops_and_anchors(self):
        clock = Clock()
        fired = []
        clock.schedule(1.0, fired.append, "a")
        clock.schedule(5.0, fired.append, "b")
        clock.run_until(2.0)
        assert fired == ["a"]
        assert clock.now == 2.0

    def test_cascading_events(self):
        clock = Clock()
        fired = []

        def first(_):
            fired.append(clock.now)
            clock.schedule(2.0, lambda _: fired.append(clock.now), None)

        clock.schedule(1.0, first, None)
        clock.run()
        assert fired == [1.0, 3.0]

    def test_scheduling_in_past_rejected(self):
        clock = Clock(start=10.0)
        with pytest.raises(ClockError):
            clock.schedule(-1.0, print, None)
        with pytest.raises(ClockError):
            clock.schedule_at(5.0, print, None)
        with pytest.raises(ClockError):
            clock.run_until(5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        clock = Clock()
        clock.schedule_at(1.0, print, None)
        with pytest.raises(ClockError):
            clock.schedule(bad, print, None)
        with pytest.raises(ClockError):
            clock.schedule_at(bad, print, None)
        with pytest.raises(ClockError):
            clock.run_until(bad)
        assert (clock.pending, clock.now) == (1, 0.0)

    def test_negative_infinity_rejected(self):
        clock = Clock()
        with pytest.raises(ClockError):
            clock.schedule_at(float("-inf"), print, None)
        with pytest.raises(ClockError):
            clock.run_until(float("-inf"))
        assert (clock.pending, clock.now) == (0, 0.0)

    def test_step_on_an_empty_queue_leaves_the_clock_alone(self):
        clock = Clock(start=4.0)
        assert clock.step() is False
        assert (clock.now, clock.events_fired) == (4.0, 0)

    def test_step_moves_now_to_the_event_time(self):
        clock = Clock()
        clock.schedule(2.5, print, None)
        clock.schedule(7.0, print, None)
        clock.step()
        assert (clock.now, clock.pending, clock.events_fired) == (2.5, 1, 1)

    def test_pending_and_fired_counts_track_the_queue(self):
        clock = Clock()
        for delay in (1.0, 2.0, 3.0):
            clock.schedule(delay, print, None)
        assert (clock.pending, clock.events_fired) == (3, 0)
        clock.run_until(2.0)
        assert (clock.pending, clock.events_fired) == (1, 2)
        clock.run()
        assert (clock.pending, clock.events_fired) == (0, 3)

    def test_start_time_anchors_relative_scheduling(self):
        clock = Clock(start=10.0)
        fired = []
        clock.schedule(1.5, lambda _: fired.append(clock.now), None)
        clock.run()
        assert fired == [11.5]

    def test_scheduling_at_now_is_allowed(self):
        clock = Clock(start=3.0)
        fired = []
        clock.schedule(0.0, fired.append, "zero-delay")
        clock.schedule_at(3.0, fired.append, "at-now")
        clock.run()
        assert fired == ["zero-delay", "at-now"]
        assert clock.now == 3.0

    def test_run_until_fires_events_at_exactly_the_bound(self):
        clock = Clock()
        fired = []
        clock.schedule(2.0, fired.append, "at-bound")
        clock.schedule(2.0 + 1e-9, fired.append, "after")
        clock.run_until(2.0)
        assert fired == ["at-bound"]
        assert clock.pending == 1

    def test_run_until_anchors_an_empty_queue(self):
        clock = Clock()
        clock.run_until(5.0)
        assert clock.now == 5.0
        fired = []
        clock.schedule(1.0, lambda _: fired.append(clock.now), None)
        clock.run()
        assert fired == [6.0]

    def test_same_instant_events_scheduled_while_firing_queue_behind(self):
        clock = Clock()
        fired = []

        def first(_):
            fired.append("first")
            clock.schedule(0.0, fired.append, "spawned")

        clock.schedule(1.0, first, None)
        clock.schedule(1.0, fired.append, "second")
        clock.run()
        assert fired == ["first", "second", "spawned"]

    def test_run_resumes_after_run_until(self):
        clock = Clock()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            clock.schedule(delay, fired.append, delay)
        clock.run_until(1.5)
        clock.run()
        assert fired == [1.0, 2.0, 3.0]
        assert clock.now == 3.0

    def test_a_raising_event_leaves_later_events_queued(self):
        clock = Clock()
        fired = []

        def boom(_):
            raise RuntimeError("handler failed")

        clock.schedule(1.0, boom, None)
        clock.schedule(2.0, fired.append, "later")
        with pytest.raises(RuntimeError):
            clock.run()
        assert (clock.now, clock.pending, fired) == (1.0, 1, [])
        clock.run()
        assert fired == ["later"]

    @given(delays=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
                           max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_firing_order_is_time_then_scheduling_order(self, delays):
        clock = Clock()
        fired = []
        for index, delay in enumerate(delays):
            clock.schedule(delay, fired.append, (delay, index))
        clock.run()
        assert fired == sorted(fired)
        assert clock.events_fired == len(delays)


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

    def test_reset_also_zeroes_host_counters(self):
        network = self._simple_network()
        host = network.host("b")
        host.process(10, None, lambda _: None)
        network.clock.run()
        assert host.items_processed == 10 and host.busy_time > 0
        network.reset_counters()
        assert (host.items_processed, host.busy_time) == (0, 0.0)

    def test_unknown_host_lookup_raises(self):
        network = self._simple_network()
        with pytest.raises(NetworkError, match="no such host: 'ghost'"):
            network.host("ghost")


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
