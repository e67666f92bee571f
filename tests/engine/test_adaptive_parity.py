"""Determinism and parity contracts for the budget controllers.

The engine's per-window feedback seam must not cost any of the repo's
reproducibility guarantees:

* a fixed ``(seed, scenario, controller)`` triple is bit-reproducible;
* sharded execution replays the *identical* controller decisions —
  the parent broadcasts one merged-Theta observation per window, so
  ``workers=1`` sharding equals the unsharded run and inline shards
  equal real multi-process shards, per controller;
* the ``static`` controller is bit-for-bit the pre-controller engine
  (it is the config default, so today's runs are yesterday's runs);
* the adaptive controllers demonstrably *act*: their outputs and
  budget traces differ from static where the workload drifts.
"""

import pytest

from repro.engine.sharding import ShardedEngineRunner
from repro.scenarios import get_scenario
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

CONTROLLERS = ["static", "adaptive_fraction", "variance_aware"]

SCHEDULE = RateSchedule(
    "adaptive-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)


def generators():
    return {g.name: g for g in paper_gaussian_substreams()}


def config_for(controller, workers=1, fraction=0.2, seed=13):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        workers=workers,
        budget_controller=controller,
    )


def window_key(w):
    return (
        w.window_index, w.items_emitted, w.items_sampled, w.items_dropped,
        w.exact_sum, w.srs_sum, w.approx_sum.value, w.approx_sum.error,
        w.sample_budget,
    )


def run_unsharded(controller, scenario="drift", windows=12, **kwargs):
    with StatisticalRunner(
        config_for(controller, **kwargs), SCHEDULE, generators(),
        scenario=get_scenario(scenario),
    ) as runner:
        return runner.run(windows)


def run_sharded(controller, scenario="drift", windows=12, *, inline=False,
                **kwargs):
    scenario = get_scenario(scenario)
    if inline:
        return ShardedEngineRunner(
            config_for(controller, **kwargs), SCHEDULE, generators(),
            scenario=scenario, inline=True,
        ).run(windows)
    with ShardedEngineRunner(
        config_for(controller, **kwargs), SCHEDULE, generators(),
        scenario=scenario,
    ) as runner:
        return runner.run(windows)


class TestBitReproducibility:
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_fixed_seed_controller_is_bit_reproducible(self, controller):
        runs = [run_unsharded(controller) for _ in range(2)]
        assert [window_key(w) for w in runs[0].windows] == [
            window_key(w) for w in runs[1].windows
        ]

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_fixed_seed_sharded_is_bit_reproducible(self, controller):
        runs = [
            run_sharded(controller, workers=2, inline=True) for _ in range(2)
        ]
        assert [window_key(w) for w in runs[0].windows] == [
            window_key(w) for w in runs[1].windows
        ]

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_different_seeds_differ(self, controller):
        a = run_unsharded(controller, seed=13)
        b = run_unsharded(controller, seed=14)
        assert [window_key(w) for w in a.windows] != [
            window_key(w) for w in b.windows
        ]


class TestShardingParity:
    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_one_shard_equals_unsharded(self, controller):
        """The broadcast observation replays the in-process decisions."""
        unsharded = run_unsharded(controller)
        sharded = run_sharded(controller, workers=1, inline=True)
        assert [window_key(w) for w in unsharded.windows] == [
            window_key(w) for w in sharded.windows
        ]

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_inline_equals_multiprocess(self, controller):
        """Process boundaries change nothing: observations pickle whole."""
        inline = run_sharded(controller, workers=2, inline=True)
        processes = run_sharded(controller, workers=2)
        assert [window_key(w) for w in inline.windows] == [
            window_key(w) for w in processes.windows
        ]


class TestStaticIsTheLegacyEngine:
    def test_static_controller_is_the_default(self):
        assert PipelineConfig(sampling_fraction=0.2).budget_controller == (
            "static"
        )

    def test_static_matches_default_config_bitwise(self):
        """Configs predating the knob still run the exact same engine."""
        explicit = run_unsharded("static")
        with StatisticalRunner(
            PipelineConfig(
                sampling_fraction=0.2, window_seconds=1.0, seed=13,
            ),
            SCHEDULE, generators(), scenario=get_scenario("drift"),
        ) as runner:
            implicit = runner.run(12)
        assert [window_key(w) for w in explicit.windows] == [
            window_key(w) for w in implicit.windows
        ]

    def test_static_budget_trace_is_constant(self):
        outcome = run_unsharded("static")
        budgets = {w.sample_budget for w in outcome.windows}
        assert len(budgets) == 1
        assert budgets.pop() > 0


class TestControllersAct:
    def test_variance_aware_changes_the_sample_path(self):
        """The allocation override is live, not a no-op."""
        static = run_unsharded("static")
        adaptive = run_unsharded("variance_aware")
        assert [window_key(w) for w in static.windows] != [
            window_key(w) for w in adaptive.windows
        ]

    def test_variance_aware_keeps_the_total_budget(self):
        """It moves slots between strata; it never buys more."""
        static = run_unsharded("static")
        adaptive = run_unsharded("variance_aware")
        assert [w.sample_budget for w in adaptive.windows] == [
            w.sample_budget for w in static.windows
        ]

    def test_adaptive_fraction_moves_the_budget_trace(self):
        """The fraction controller demonstrably re-derives budgets."""
        outcome = run_unsharded("adaptive_fraction")
        budgets = [w.sample_budget for w in outcome.windows]
        assert len(set(budgets)) > 1
        # At a 0.2 fraction the reported bound sits far below the 5%
        # target, so the controller only ever shrinks: the trace is
        # monotone non-increasing from the static starting budget.
        static = run_unsharded("static")
        assert budgets[0] == static.windows[0].sample_budget
        assert all(b >= a for b, a in zip(budgets, budgets[1:]))
        assert budgets[-1] < budgets[0]
