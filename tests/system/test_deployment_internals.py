"""White-box tests for deployment simulator mechanics."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.system.config import ExecutionMode, PipelineConfig
from repro.system.deployment import DeploymentSimulator
from repro.topology.placement import PlacementSpec
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "internals", {"A": 200.0, "B": 200.0, "C": 200.0, "D": 200.0}
)
PLACEMENT = PlacementSpec.paper_defaults(root_rate=500.0, edge_rate=2000.0)


def simulator(mode=ExecutionMode.APPROXIOT, fraction=0.2, window=1.0,
              n_windows=4):
    config = PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=window,
        mode=mode,
        placement=PLACEMENT,
        seed=17,
    )
    return DeploymentSimulator(config, SCHEDULE, GENS, n_windows=n_windows)


class TestBudgetSizing:
    def test_budget_scales_with_subtree(self):
        sim = simulator(fraction=0.1)
        # Each of the 4 sub-streams (200/s) is split across 2 of the 8
        # sources, so every source emits 100/s: l1 nodes see 200/s,
        # l2 nodes 400/s, the root 800/s.
        assert sim._states["l1-0"].budget == pytest.approx(0.1 * 200, abs=2)
        assert sim._states["l2-0"].budget == pytest.approx(0.1 * 400, abs=2)
        assert sim._states["root"].budget == pytest.approx(0.1 * 800, abs=2)

    def test_budget_scales_with_window(self):
        narrow = simulator(window=1.0)._states["root"].budget
        wide = simulator(window=2.0)._states["root"].budget
        assert wide == pytest.approx(2 * narrow, rel=0.05)


class TestEmissionChunking:
    def test_chunking_covers_whole_duration(self):
        sim = simulator(window=1.3, n_windows=3)
        duration = 1.3 * 3
        chunks = max(1, math.ceil(duration / sim.EMISSION_GRANULARITY))
        assert chunks * (duration / chunks) == pytest.approx(duration)

    def test_emitter_spreads_each_chunk_strictly_inside_it(self):
        """Sources emit one time per chunk; the emitter stamps each
        record strictly inside its chunk, in emission order."""
        sim = simulator()
        sent = []
        sim._send_items = lambda _src, _dst, items, _w: sent.append(items)
        source = sim._tree.sources[0]
        chunk = sim.EMISSION_GRANULARITY
        for start in (5.0, 5.0 + chunk):
            sim._emit_source(source, start, chunk, {})
            times = list(sent[-1].timestamps)
            assert len(times) > 1
            assert all(start < t < start + chunk for t in times)
            assert times == sorted(times)

    def test_sources_of_one_count_share_one_read_only_column(self):
        """Every source emits the same count per chunk here, so the
        chunk's one stamp column serves them all and cannot be written."""
        sim = simulator()
        sent = []
        sim._send_items = lambda _src, _dst, items, _w: sent.append(items)
        sim._emit_chunk((5.0, sim.EMISSION_GRANULARITY))
        assert len(sent) == len(sim._tree.sources) > 1
        column = sent[0].timestamps
        assert all(batch.timestamps is column for batch in sent)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0

    def test_emitted_volume_independent_of_window(self):
        small = simulator(window=0.5, n_windows=8).run()
        large = simulator(window=2.0, n_windows=2).run()
        # Same total duration (4 s) -> same emitted volume.
        assert small.items_emitted == pytest.approx(
            large.items_emitted, rel=0.02
        )


class TestDrainCompleteness:
    def test_no_batch_left_in_an_inbox_after_run(self):
        sim = simulator()
        sim.run()
        assert not sim._transport.has_pending()

    def test_all_sampled_items_accounted(self):
        sim = simulator(fraction=0.5)
        report = sim.run()
        # Every item the root ingested passed through L1 and L2 intact.
        l1_ingested = sum(
            sim._states[f"l1-{i}"].items_ingested for i in range(4)
        )
        assert l1_ingested == report.items_emitted
        assert report.items_at_root <= l1_ingested

    def test_latency_samples_only_from_root(self):
        sim = simulator()
        report = sim.run()
        assert sim.latency_recorder.count > 0
        assert report.mean_latency_seconds == pytest.approx(
            sim.latency_recorder.mean()
        )


class TestModeIsolation:
    def test_srs_and_native_register_no_inboxes(self):
        for mode in (ExecutionMode.SRS, ExecutionMode.NATIVE):
            sim = simulator(mode=mode)
            assert sim._states == {}
            with pytest.raises(ConfigurationError):
                sim._transport.collect("root")

    def test_native_ignores_fraction(self):
        report = simulator(
            mode=ExecutionMode.NATIVE, fraction=0.1
        ).run()
        assert report.realized_fraction == 1.0
