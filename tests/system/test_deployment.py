"""Integration tests for the deployment simulator."""

import pytest

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


class TestPinnedReports:
    """Exact reports for seeded runs: any change to delivery order,
    link timing or host accounting moves at least one field.

    The values were recorded from the simulator and are compared with
    ``==``, float fields included.
    """

    @staticmethod
    def fig6_point(mode, fraction):
        """One Fig. 6 point at quick scale (12 windows)."""
        scale = ExperimentScale.quick()
        schedule = uniform_schedule(scale.rate_scale)
        config = base_config(
            fraction, scale, mode=mode,
            placement=saturating_placement(schedule),
        )
        simulator = DeploymentSimulator(
            config, schedule, gaussian_generators(), n_windows=12
        )
        return simulator.run()

    def test_fig6_approxiot(self):
        assert self.fig6_point(ExecutionMode.APPROXIOT, 0.1) == DeploymentReport(
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
        assert self.fig6_point(ExecutionMode.SRS, 0.1) == DeploymentReport(
            mode="srs",
            sampling_fraction=0.1,
            window_seconds=1.0,
            items_emitted=24000,
            items_at_root=2367,
            makespan_seconds=12.437056799999995,
            throughput_items_per_second=1929.71700507149,
            mean_latency_seconds=0.4840304005029477,
            boundary_bytes=[2400000, 236700, 236700],
        )

    def test_fig6_native(self):
        assert self.fig6_point(ExecutionMode.NATIVE, 1.0) == DeploymentReport(
            mode="native",
            sampling_fraction=1.0,
            window_seconds=1.0,
            items_emitted=24000,
            items_at_root=24000,
            makespan_seconds=120.44615120000002,
            throughput_items_per_second=199.25916902191554,
            mean_latency_seconds=54.60341120000001,
            boundary_bytes=[2400000, 2400000, 2400000],
        )

    def test_lossy_approxiot(self):
        """10 % loss on every uplink: drops are part of the pinned run."""
        config = PipelineConfig(
            sampling_fraction=0.2,
            window_seconds=1.0,
            mode=ExecutionMode.APPROXIOT,
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
        report = DeploymentSimulator(config, SCHEDULE, GENS, n_windows=6).run()
        assert report == DeploymentReport(
            mode="approxiot",
            sampling_fraction=0.2,
            window_seconds=1.0,
            items_emitted=7200,
            items_at_root=1507,
            makespan_seconds=9.0374,
            throughput_items_per_second=796.6893132980724,
            mean_latency_seconds=2.811634030663919,
            boundary_bytes=[720000, 165700, 156700],
        )
