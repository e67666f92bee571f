"""Integration tests for the deployment simulator."""

import gc
import tracemalloc
import weakref

import pytest

from repro.core.items import WeightedBatch
from repro.errors import PipelineError
from repro.experiments.base import (
    ExperimentScale,
    base_config,
    gaussian_generators,
    saturating_placement,
    uniform_schedule,
)
from repro.simnet.netem import NetemConfig
from repro.system.config import ExecutionMode, PipelineConfig
from repro.system.deployment import DeploymentReport, DeploymentSimulator
from repro.topology.placement import PlacementSpec
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "test", {"A": 300.0, "B": 300.0, "C": 300.0, "D": 300.0}
)
#: Root saturates in native (aggregate 1200 vs root 150), edges have room.
PLACEMENT = PlacementSpec.paper_defaults(root_rate=150.0, edge_rate=1200.0)


def run_sim(mode, fraction=0.1, window=1.0, n_windows=6, seed=2):
    config = PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=window,
        mode=mode,
        placement=PLACEMENT,
        seed=seed,
    )
    simulator = DeploymentSimulator(config, SCHEDULE, GENS, n_windows=n_windows)
    return simulator.run()


class TestNative:
    def test_everything_reaches_root(self):
        report = run_sim(ExecutionMode.NATIVE, fraction=1.0)
        assert report.items_at_root == report.items_emitted
        assert report.realized_fraction == 1.0

    def test_root_saturation_caps_throughput(self):
        report = run_sim(ExecutionMode.NATIVE, fraction=1.0, n_windows=8)
        # Offered 1200/s vs root capacity 150/s: sustained ~150/s.
        assert report.throughput_items_per_second < 300.0

    def test_full_bytes_on_all_boundaries(self):
        report = run_sim(ExecutionMode.NATIVE, fraction=1.0)
        source_bytes, l1_bytes, l2_bytes = report.boundary_bytes
        assert source_bytes == l1_bytes == l2_bytes


class TestApproxIoT:
    def test_realized_fraction_tracks_config(self):
        report = run_sim(ExecutionMode.APPROXIOT, fraction=0.1, n_windows=8)
        assert report.realized_fraction == pytest.approx(0.1, rel=0.2)

    def test_upper_boundaries_carry_fraction_of_bytes(self):
        report = run_sim(ExecutionMode.APPROXIOT, fraction=0.1, n_windows=8)
        source_bytes, l1_bytes, l2_bytes = report.boundary_bytes
        assert l1_bytes == pytest.approx(source_bytes * 0.1, rel=0.25)
        assert l2_bytes == pytest.approx(source_bytes * 0.1, rel=0.25)

    def test_throughput_beats_native_at_low_fraction(self):
        approx = run_sim(ExecutionMode.APPROXIOT, fraction=0.1, n_windows=8)
        native = run_sim(ExecutionMode.NATIVE, fraction=1.0, n_windows=8)
        assert (
            approx.throughput_items_per_second
            > 2 * native.throughput_items_per_second
        )

    def test_latency_beats_native_at_low_fraction(self):
        approx = run_sim(ExecutionMode.APPROXIOT, fraction=0.1, n_windows=8)
        native = run_sim(ExecutionMode.NATIVE, fraction=1.0, n_windows=8)
        assert approx.mean_latency_seconds < native.mean_latency_seconds

    def test_latency_grows_with_window_size(self):
        small = run_sim(ExecutionMode.APPROXIOT, window=0.5, n_windows=8)
        large = run_sim(ExecutionMode.APPROXIOT, window=2.0, n_windows=8)
        assert large.mean_latency_seconds > small.mean_latency_seconds

    def test_no_items_stranded(self):
        """Every emitted item is either dropped by sampling or processed."""
        report = run_sim(ExecutionMode.APPROXIOT, fraction=0.5, n_windows=4)
        assert 0 < report.items_at_root <= report.items_emitted


class TestSRS:
    def test_latency_flat_across_window_sizes(self):
        """SRS needs no sampling window (Fig. 9's flat line)."""
        small = run_sim(ExecutionMode.SRS, window=0.5, n_windows=8)
        large = run_sim(ExecutionMode.SRS, window=3.0, n_windows=8)
        assert large.mean_latency_seconds == pytest.approx(
            small.mean_latency_seconds, rel=0.25
        )

    def test_latency_below_approxiot(self):
        srs = run_sim(ExecutionMode.SRS, window=2.0, n_windows=6)
        approxiot = run_sim(ExecutionMode.APPROXIOT, window=2.0, n_windows=6)
        assert srs.mean_latency_seconds < approxiot.mean_latency_seconds

    def test_realized_fraction_near_configured(self):
        report = run_sim(ExecutionMode.SRS, fraction=0.2, n_windows=8)
        assert report.realized_fraction == pytest.approx(0.2, rel=0.25)

    def test_throughput_similar_to_approxiot(self):
        srs = run_sim(ExecutionMode.SRS, fraction=0.1, n_windows=8)
        approxiot = run_sim(ExecutionMode.APPROXIOT, fraction=0.1, n_windows=8)
        assert srs.throughput_items_per_second == pytest.approx(
            approxiot.throughput_items_per_second, rel=0.5
        )


class TestReportValidation:
    def test_n_windows_validated(self):
        config = PipelineConfig(placement=PLACEMENT)
        with pytest.raises(PipelineError):
            DeploymentSimulator(config, SCHEDULE, GENS, n_windows=0)

    def test_missing_generators(self):
        config = PipelineConfig(placement=PLACEMENT)
        schedule = RateSchedule("s", {"Z": 10.0})
        with pytest.raises(PipelineError):
            DeploymentSimulator(config, schedule, GENS, n_windows=1)

    def test_report_fields_consistent(self):
        report = run_sim(ExecutionMode.APPROXIOT, n_windows=4)
        assert report.mode == ExecutionMode.APPROXIOT
        assert report.sampling_fraction == 0.1
        assert report.window_seconds == 1.0
        assert report.makespan_seconds > 0
        assert len(report.boundary_bytes) == 3


def quick_simulator(mode, fraction, window_seconds=1.0, n_windows=12):
    """A deployment point at quick scale (Fig. 6 by default)."""
    scale = ExperimentScale.quick()
    schedule = uniform_schedule(scale.rate_scale)
    config = base_config(
        fraction, scale, window_seconds=window_seconds, mode=mode,
        placement=saturating_placement(schedule),
    )
    return DeploymentSimulator(
        config, schedule, gaussian_generators(), n_windows=n_windows
    )


def deploy_replay_simulator(mode):
    """The point ``deploy-replay`` runs (there fed by replayed inputs):
    100 k items/s for 8 windows, seed 42, the native root saturated."""
    schedule = uniform_schedule(1.0)
    config = PipelineConfig(
        sampling_fraction=1.0 if mode == ExecutionMode.NATIVE else 0.1,
        seed=42, mode=mode, placement=saturating_placement(schedule),
    )
    return DeploymentSimulator(
        config, schedule, gaussian_generators(), n_windows=8
    )


class TestEventCounts:
    """Clock events per run: counters, never clocks.

    The simulator pays per event, so an added event per send or per
    source shows here before it shows in a timing. A quick-scale Fig. 6
    point emits 48 chunks from 8 sources; each chunk instant is one
    event, not one per source. A streaming (srs, native) root is a
    sink settled on arrival: its deliveries fire no completion event.
    """

    EVENTS = {"approxiot": 857, "srs": 1965, "native": 1968}

    @pytest.mark.parametrize("mode", sorted(EVENTS))
    def test_events_fired(self, mode):
        fraction = 1.0 if mode == ExecutionMode.NATIVE else 0.1
        simulator = quick_simulator(mode, fraction)
        chunks = []
        emit_chunk = simulator._emit_chunk
        simulator._emit_chunk = lambda chunk: (
            chunks.append(chunk), emit_chunk(chunk)
        )
        simulator.run()
        assert len(chunks) == 48
        assert simulator._clock.events_fired == self.EVENTS[mode]


def held_records(queue):
    """Records in pending clock events' ``(node, WeightedBatch)`` args."""
    return sum(
        len(arg[1]) for *_, arg in queue
        if isinstance(arg, tuple) and isinstance(arg[-1], WeightedBatch)
    )


class TestStreamingRootIsASink:
    """A streaming root is accounted on arrival — counters, never clocks.

    The root forwards nothing and serves FIFO, so a delivery's
    completion time is known when it arrives. At the ``deploy-replay``
    point (100 k items/s for 8 windows, seed 42) the saturated native
    root would otherwise keep 725,000 of its 800,000 records queued in
    completion events.
    """

    def test_native_clock_holds_few_records(self):
        simulator = deploy_replay_simulator(ExecutionMode.NATIVE)
        clock = simulator._clock
        schedule_at = clock.schedule_at
        peak = 0

        def measured(time, fn, arg):
            nonlocal peak
            schedule_at(time, fn, arg)
            peak = max(peak, held_records(clock._queue))

        clock.schedule_at = measured
        assert simulator.run().items_at_root == 800_000
        assert 0 < peak <= 50_000

    @pytest.mark.parametrize("mode", [ExecutionMode.SRS, ExecutionMode.NATIVE])
    def test_root_never_reaches_a_completion_event(self, mode):
        simulator = deploy_replay_simulator(mode)
        finished = []
        finish_streaming = simulator._finish_streaming

        def recorded(delivery):
            finished.append(delivery[0])
            finish_streaming(delivery)

        simulator._finish_streaming = recorded
        report = simulator.run()
        assert finished and "root" not in finished
        assert simulator._hosts["root"].items_processed == report.items_at_root


class TestNoReferenceCycle:
    """A finished simulator is freed by reference counting alone.

    A callback that references the simulator and is stored on it (a
    cached per-node closure, say) makes a cycle: finished simulators
    would then live until the cycle collector runs, which shows as peak
    memory in long sweeps.
    """

    @pytest.mark.parametrize("mode", ExecutionMode.ALL)
    def test_simulator_freed_without_gc(self, mode):
        fraction = 1.0 if mode == ExecutionMode.NATIVE else 0.1
        gc.disable()
        try:
            simulator = DeploymentSimulator(
                PipelineConfig(
                    sampling_fraction=fraction, mode=mode,
                    placement=PLACEMENT, seed=2,
                ),
                SCHEDULE, GENS, n_windows=2,
            )
            simulator.run()
            ref = weakref.ref(simulator)
            del simulator
            assert ref() is None
        finally:
            gc.enable()


class TestMemoryDoesNotGrowWithRunLength:
    """A run's traced peak is set by what is in flight, not by how long
    it ran: nothing is kept per record that reached the root.

    At 25 k items/s over all sources (bench scale), a run 4x as long
    peaks at most 25 % higher. A recorder that keeps one latency per
    record peaks ~3.9x higher (native), ~3.5x (srs), ~1.4x (approxiot).
    """

    @staticmethod
    def traced_peak(mode, n_windows):
        schedule = uniform_schedule(0.25)
        config = PipelineConfig(
            sampling_fraction=1.0 if mode == ExecutionMode.NATIVE else 0.1,
            seed=42, mode=mode, placement=saturating_placement(schedule),
        )
        simulator = DeploymentSimulator(
            config, schedule, gaussian_generators(), n_windows=n_windows
        )
        tracemalloc.start()
        try:
            simulator.run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ExecutionMode.ALL)
    def test_peak_at_24_windows_within_25_percent_of_6(self, mode):
        short = self.traced_peak(mode, 6)
        long = self.traced_peak(mode, 24)
        assert long <= 1.25 * short, (short, long)


def lossy_run(mode):
    """A seeded run with 10 % loss on every uplink."""
    config = PipelineConfig(
        sampling_fraction=0.2,
        window_seconds=1.0,
        mode=mode,
        placement=PlacementSpec(
            layer_service_rates=[1e12, 5000.0, 5000.0, 5000.0],
            uplink_configs=[
                NetemConfig.from_rtt(20.0, 1e9, loss=0.1),
                NetemConfig.from_rtt(40.0, 1e9, loss=0.1),
                NetemConfig.from_rtt(80.0, 1e9, loss=0.1),
            ],
        ),
        seed=3,
    )
    return DeploymentSimulator(config, SCHEDULE, GENS, n_windows=6).run()


class TestPinnedReports:
    """Exact reports for seeded runs: any change to delivery order,
    link timing or host accounting moves at least one field.

    The values were recorded from the simulator and are compared with
    ``==``, float fields included.
    """

    @staticmethod
    def quick_point(mode, fraction, window_seconds=1.0, n_windows=12):
        """One deployment point at quick scale (Fig. 6 by default)."""
        return quick_simulator(mode, fraction, window_seconds, n_windows).run()

    def test_fig6_approxiot(self):
        assert self.quick_point(ExecutionMode.APPROXIOT, 0.1) == DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.1,
            window_seconds=1.0,
            items_emitted=24000,
            items_at_root=2600,
            makespan_seconds=16.0,
            throughput_items_per_second=1500.0,
            mean_latency_seconds=3.7618176940247254,
            boundary_bytes=[2400000, 260000, 260000],
        )

    def test_fig6_srs(self):
        assert self.quick_point(ExecutionMode.SRS, 0.1) == DeploymentReport(
            mode="srs",
            sampling_fraction=0.1,
            window_seconds=1.0,
            items_emitted=24000,
            items_at_root=2367,
            makespan_seconds=12.437056799999995,
            throughput_items_per_second=1929.71700507149,
            mean_latency_seconds=0.48403040050294766,
            boundary_bytes=[2400000, 236700, 236700],
        )

    def test_fig6_native(self):
        assert self.quick_point(ExecutionMode.NATIVE, 1.0) == DeploymentReport(
            mode="native",
            sampling_fraction=1.0,
            window_seconds=1.0,
            items_emitted=24000,
            items_at_root=24000,
            makespan_seconds=120.44615120000002,
            throughput_items_per_second=199.25916902191554,
            mean_latency_seconds=54.60341119999999,
            boundary_bytes=[2400000, 2400000, 2400000],
        )

    def test_lossy_approxiot(self):
        """10 % loss on every uplink: drops are part of the pinned run."""
        report = lossy_run(ExecutionMode.APPROXIOT)
        assert report == DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.2,
            window_seconds=1.0,
            items_emitted=7200,
            items_at_root=1507,
            makespan_seconds=9.0374,
            throughput_items_per_second=796.6893132980724,
            mean_latency_seconds=2.8116340306639196,
            boundary_bytes=[720000, 165700, 156700],
        )

    def test_lossy_srs(self):
        """10 % loss on every uplink: SRS draws the link RNG per transfer."""
        report = lossy_run(ExecutionMode.SRS)
        assert report == DeploymentReport(
            mode="srs",
            sampling_fraction=0.2,
            window_seconds=1.0,
            items_emitted=7200,
            items_at_root=1007,
            makespan_seconds=6.090042399999999,
            throughput_items_per_second=1182.2577786978957,
            mean_latency_seconds=0.21263417484035468,
            boundary_bytes=[720000, 123100, 110200],
        )

    #: Fig. 9's window axis at its ends (10 windows, 10 % fraction): at
    #: 0.5 s every other emission instant is a window close, at 4.0 s
    #: every sixteenth.
    FIG9 = {
        ("approxiot", 0.5): DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.1,
            window_seconds=0.5,
            items_emitted=10000,
            items_at_root=1100,
            makespan_seconds=7.0,
            throughput_items_per_second=1428.5714285714287,
            mean_latency_seconds=1.994160579004329,
            boundary_bytes=[1000000, 110000, 110000],
        ),
        ("approxiot", 4.0): DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.1,
            window_seconds=4.0,
            items_emitted=80000,
            items_at_root=8496,
            makespan_seconds=54.48,
            throughput_items_per_second=1468.4287812041116,
            mean_latency_seconds=14.242085949819057,
            boundary_bytes=[8000000, 849600, 849600],
        ),
        ("srs", 0.5): DeploymentReport(
            mode="srs",
            sampling_fraction=0.1,
            window_seconds=0.5,
            items_emitted=10000,
            items_at_root=959,
            makespan_seconds=5.3970568000000005,
            throughput_items_per_second=1852.861730119275,
            mean_latency_seconds=0.40212919734842817,
            boundary_bytes=[1000000, 95900, 95900],
        ),
        ("srs", 4.0): DeploymentReport(
            mode="srs",
            sampling_fraction=0.1,
            window_seconds=4.0,
            items_emitted=80000,
            items_at_root=7939,
            makespan_seconds=40.813058399999974,
            throughput_items_per_second=1960.156948198718,
            mean_latency_seconds=0.566759631936574,
            boundary_bytes=[8000000, 793900, 793900],
        ),
    }

    @pytest.mark.parametrize("mode,window", sorted(FIG9))
    def test_fig9_window(self, mode, window):
        report = self.quick_point(mode, 0.1, window, n_windows=10)
        assert report == self.FIG9[mode, window]

    #: The point the ``deploy-replay`` benchmark runs.
    DEPLOY_REPLAY = {
        "approxiot": DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.1,
            window_seconds=1.0,
            items_emitted=800000,
            items_at_root=90000,
            makespan_seconds=12.0,
            throughput_items_per_second=66666.66666666667,
            mean_latency_seconds=3.776637991398307,
            boundary_bytes=[80000000, 9000000, 9000000],
        ),
        "srs": DeploymentReport(
            mode="srs",
            sampling_fraction=0.1,
            window_seconds=1.0,
            items_emitted=800000,
            items_at_root=79421,
            makespan_seconds=8.396471999999997,
            throughput_items_per_second=95278.11204515424,
            mean_latency_seconds=0.40981681687295,
            boundary_bytes=[80000000, 7942100, 7942100],
        ),
        "native": DeploymentReport(
            mode="native",
            sampling_fraction=1.0,
            window_seconds=1.0,
            items_emitted=800000,
            items_at_root=800000,
            makespan_seconds=80.4525,
            throughput_items_per_second=9943.755632205339,
            mean_latency_seconds=36.60875,
            boundary_bytes=[80000000, 80000000, 80000000],
        ),
    }

    #: Latency samples per mode at that point: one per record the root
    #: processed (approxiot: per record the root kept).
    DEPLOY_REPLAY_LATENCY_RECORDS = {
        "approxiot": 90000, "srs": 79421, "native": 800000,
    }

    @pytest.mark.parametrize("mode", sorted(DEPLOY_REPLAY))
    def test_deploy_replay_point(self, mode):
        simulator = deploy_replay_simulator(mode)
        assert simulator.run() == self.DEPLOY_REPLAY[mode]
        assert (
            simulator.latency_recorder.count
            == self.DEPLOY_REPLAY_LATENCY_RECORDS[mode]
        )
