"""Scenario determinism suite + ScenarioRunner quality/validation tests.

The contracts under test:

* a fixed ``(seed, scenario, workers)`` triple is bit-reproducible
  across repeats;
* inline shard execution equals real multi-process execution under
  churn (the scenario timeline is a pure function of the window
  index, recomputed identically in every process);
* the ``steady`` scenario is bit-for-bit the static (no-scenario) run;
* for every built-in scenario whose data stays *visible* to the
  estimator (everything except ``brownout``, which destroys and
  delays batches on the wire), mean accuracy loss stays within the
  mean reported §III-D error bound at quick scale;
* knob combinations that cannot work fail loudly, and worker shards
  are reaped cleanly even under churn.
"""

import multiprocessing

import pytest

from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.sharding import ShardedEngineRunner
from repro.engine.transport import InProcessTransport
from repro.errors import ConfigurationError, PipelineError
from repro.scenarios import (
    LinkDegrade,
    NodeChurn,
    Scenario,
    ScenarioEngine,
    get_scenario,
    scenario_names,
)
from repro.system.config import PipelineConfig
from repro.system.scenarios import ScenarioRunner
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

SCHEDULE = RateSchedule(
    "scenario-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)

#: Built-ins whose emitted data all reaches the estimator; ``brownout``
#: destroys/delays batches mid-flight, and no estimator can bound data
#: it never saw.
VISIBLE_DATA_SCENARIOS = [
    name for name in scenario_names() if name != "brownout"
]


def generators():
    return {g.name: g for g in paper_gaussian_substreams()}


def config_for(workers=1, seed=13, fraction=0.2):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        workers=workers,
    )


def window_tuple(w):
    return (
        w.window, w.items_emitted, w.items_sampled, w.items_dropped,
        w.exact_sum, w.approx_sum, w.error_bound, w.srs_loss,
    )


def run_scenario(name_or_scenario, **config_kwargs):
    scenario = (
        get_scenario(name_or_scenario)
        if isinstance(name_or_scenario, str) else name_or_scenario
    )
    with ScenarioRunner(
        config_for(**config_kwargs), SCHEDULE, generators(), scenario
    ) as runner:
        return runner.run()


class TestDeterminism:
    def test_fixed_seed_scenario_is_bit_reproducible(self):
        runs = [run_scenario("brownout", seed=13) for _ in range(2)]
        assert [window_tuple(w) for w in runs[0].windows] == [
            window_tuple(w) for w in runs[1].windows
        ]

    def test_fixed_seed_scenario_workers_is_bit_reproducible(self):
        runs = [
            run_scenario("churn", workers=2, seed=13) for _ in range(2)
        ]
        assert [window_tuple(w) for w in runs[0].windows] == [
            window_tuple(w) for w in runs[1].windows
        ]

    def test_different_seeds_differ(self):
        a = run_scenario("flash-crowd", seed=13)
        b = run_scenario("flash-crowd", seed=14)
        assert [window_tuple(w) for w in a.windows] != [
            window_tuple(w) for w in b.windows
        ]

    def test_inline_equals_multiprocess_under_churn(self):
        scenario = get_scenario("churn")
        inline = ShardedEngineRunner(
            config_for(workers=2), SCHEDULE, generators(),
            scenario=scenario, inline=True,
        ).run(scenario.windows)
        with ShardedEngineRunner(
            config_for(workers=2), SCHEDULE, generators(), scenario=scenario
        ) as runner:
            processes = runner.run(scenario.windows)
        key = lambda w: (  # noqa: E731 - local comparison key
            w.window_index, w.items_emitted, w.items_sampled,
            w.items_dropped, w.exact_sum, w.srs_sum,
            w.approx_sum.value, w.approx_sum.error,
        )
        assert [key(w) for w in inline.windows] == [
            key(w) for w in processes.windows
        ]

    def test_steady_scenario_is_the_static_run_bitwise(self):
        with StatisticalRunner(
            config_for(), SCHEDULE, generators(),
            scenario=get_scenario("steady"),
        ) as with_scenario:
            a = with_scenario.run(6)
        with StatisticalRunner(config_for(), SCHEDULE, generators()) as static:
            b = static.run(6)
        key = lambda w: (  # noqa: E731 - local comparison key
            w.window_index, w.items_emitted, w.items_sampled,
            w.exact_sum, w.srs_sum, w.approx_sum.value, w.approx_sum.error,
        )
        assert [key(w) for w in a.windows] == [key(w) for w in b.windows]


class TestQualityOverTime:
    @pytest.mark.parametrize("name", VISIBLE_DATA_SCENARIOS)
    def test_mean_loss_within_mean_reported_bound(self, name):
        outcome = run_scenario(name, seed=13)
        assert len(outcome.windows) == get_scenario(name).windows
        assert outcome.mean_approxiot_loss <= outcome.mean_bound_pct, (
            f"{name}: mean loss {outcome.mean_approxiot_loss:.3f}% "
            f"exceeds mean bound {outcome.mean_bound_pct:.3f}%"
        )

    @pytest.mark.parametrize("name", ["flash-crowd", "churn"])
    def test_visible_scenarios_within_bound_under_sharding(self, name):
        outcome = run_scenario(name, workers=2, seed=13)
        assert outcome.mean_approxiot_loss <= outcome.mean_bound_pct

    def test_brownout_spikes_only_where_the_wire_is_degraded(self):
        outcome = run_scenario("brownout", seed=13)
        degraded_span = range(4, 9)  # 1-based windows 4..8 cover events 3..7
        clean = [
            w for w in outcome.windows if w.window not in degraded_span
        ]
        spikes = [w for w in outcome.windows if not w.within_bound]
        # The invisible-data windows are where the bound may break...
        assert all(w.window in degraded_span for w in spikes)
        # ...and it demonstrably does break somewhere in the brownout.
        assert spikes, "brownout produced no out-of-bound window"
        assert clean and all(w.within_bound for w in clean)

    def test_link_loss_destroys_items_and_is_counted(self):
        lossy = Scenario(
            "all-wires-burn", "d", windows=4,
            events=(LinkDegrade(0, 4, loss=0.9),),
        )
        outcome = run_scenario(lossy, seed=13)
        assert outcome.items_dropped > 0
        assert any(w.items_dropped > 0 for w in outcome.windows)

    def test_burst_saturates_the_root_budget(self):
        outcome = run_scenario("flash-crowd", seed=13)
        assert all(
            w.budget_utilisation == pytest.approx(1.0)
            for w in outcome.windows
        )


class TestChurnMechanics:
    def test_offline_node_receives_no_traffic(self):
        scenario = Scenario(
            "hole", "d", windows=3, events=(NodeChurn(0, 3, ("l1-0",)),)
        )
        config = config_for()
        with StatisticalRunner(
            config, SCHEDULE, generators(), scenario=scenario
        ) as runner:
            outcome = runner.run(3)
        # Traffic re-parented around the hole and nothing lingers in it.
        assert runner.engine.transport.collect("l1-0") == []
        assert not runner.engine.transport.has_pending()
        assert all(w.items_sampled > 0 for w in outcome.windows)

    def test_batches_route_past_two_offline_ancestors(self):
        """With l1-0 and its parent l2-0 both down, source-0 and
        source-1 deliver straight to the root, and l1-1 skips only its
        offline parent."""

        class RecordingTransport(InProcessTransport):
            def __init__(self):
                super().__init__()
                self.hops = set()

            def send(self, src, dst, batch):
                self.hops.add((src, dst))
                super().send(src, dst, batch)

        scenario = Scenario(
            "double-hole", "d", windows=2,
            events=(NodeChurn(0, 2, ("l1-0", "l2-0")),),
        )
        config = config_for()
        transport = RecordingTransport()
        runner = EngineRunner(
            build_pipeline(config, SCHEDULE, generators()),
            transport,
            scenario=ScenarioEngine(scenario, config.tree, SCHEDULE),
        )
        outcome = runner.run(2)
        assert {("source-0", "root"), ("source-1", "root"),
                ("l1-1", "root")} <= transport.hops
        assert not any(dst in {"l1-0", "l2-0"} for _, dst in transport.hops)
        assert len(outcome.windows) == 2

    def test_offline_source_volume_is_really_lost(self):
        healthy = run_scenario("steady", seed=13)
        scenario = Scenario(
            "dead-sensor", "d", windows=12,
            events=(NodeChurn(0, 12, ("source-0",)),),
        )
        wounded = run_scenario(scenario, seed=13)
        healthy_items = sum(w.items_emitted for w in healthy.windows)
        wounded_items = sum(w.items_emitted for w in wounded.windows)
        assert wounded_items == pytest.approx(healthy_items * 7 / 8, rel=0.01)


class TestValidationAndLifecycle:
    def test_bad_event_targets_fail_before_any_shard_spawns(self):
        scenario = Scenario(
            "x", "d", windows=4, events=(NodeChurn(0, 2, ("l9-9",)),)
        )
        before = len(multiprocessing.active_children())
        with pytest.raises(ConfigurationError, match="unknown tree nodes"):
            ScenarioRunner(
                config_for(workers=2), SCHEDULE, generators(), scenario
            )
        assert len(multiprocessing.active_children()) == before

    def test_churn_with_workers_reaps_shards_cleanly(self):
        with ScenarioRunner(
            config_for(workers=2), SCHEDULE, generators(),
            get_scenario("churn"),
        ) as runner:
            outcome = runner.run()
            assert outcome.windows
        for child in multiprocessing.active_children():
            assert not child.name.startswith("repro-shard-"), (
                "worker shard outlived its scenario run"
            )

    def test_rejects_nonpositive_window_count(self):
        runner = ScenarioRunner(
            config_for(), SCHEDULE, generators(), get_scenario("steady")
        )
        with pytest.raises(PipelineError):
            runner.run(0)

    def test_repeated_runs_continue_the_timeline(self):
        scenario = get_scenario("churn")
        with ScenarioRunner(
            config_for(), SCHEDULE, generators(), scenario
        ) as split:
            first = split.run(6)
            second = split.run(6)
        with ScenarioRunner(
            config_for(), SCHEDULE, generators(), scenario
        ) as whole:
            full = whole.run(12)
        assert [
            window_tuple(w) for w in first.windows + second.windows
        ] == [window_tuple(w) for w in full.windows]

    def test_report_renders_every_window(self):
        outcome = run_scenario("diurnal", seed=13)
        report = outcome.report()
        assert "quality over time" in report
        assert report.count("\n") >= 12
        assert "mean loss" in outcome.summary()
