"""Statistical acceptance suite for the adaptive budget controllers.

Every gate below is a deterministic threshold on seeded quick-scale
runs (the experiment-standard sizing) — no flaky percentile asserts.
The ``python`` backend's entropy stream is frozen (golden-pinned), so
its gates read the one standard seed, 42. The ``numpy`` backend's
stream is re-baselined whenever its kernels change how they consume
entropy, and one draw decides a head-to-head of two controllers by
luck (``variance_aware`` beats ``static`` on 2 of 8 seeds at
steady@0.1 yet wins on the 8-seed mean); its gates therefore read the
*mean over the fixed seeds* ``NUMPY_SEEDS`` — still deterministic, and
a claim about the controllers rather than about one draw. The
contracts:

* **Catalog gate** — at equal total budget, ``variance_aware`` beats
  the static split at *every* probed fraction on at least 3 of the
  built-in scenarios, on either sampling backend (the PR's headline
  claim; ``benchmarks/test_bench_adaptive.py`` publishes the same
  matrix at bench scale).
* **Worst-static gate** — on the stress scenarios (flash-crowd, skew
  drift, brownout) the adaptive mean loss never exceeds the *worst*
  static fraction's mean loss.
* **Bound coverage** — adaptive mean loss stays within the mean
  reported §III-D bound on the scenarios whose data reaches the
  estimator. ``brownout`` is excluded *by doctrine*: it destroys
  batches on the wire, and no estimator can bound data it never saw
  (same exclusion as ``VISIBLE_DATA_SCENARIOS`` in
  ``test_scenario_runner.py``) — the worst-static gate still applies
  there, because reallocation needs no visibility to help.
* **Sharded gates** — the same quality survives worker sharding,
  where controller decisions replay from broadcast observations.
* **Fraction-controller behaviour** — ``adaptive_fraction`` visibly
  steers the budget trace toward its error target.
"""

import functools
from dataclasses import replace

import pytest

from repro.core.fastpath import numpy_available
from repro.experiments.base import (
    ExperimentScale,
    base_config,
    gaussian_generators,
    uniform_schedule,
)
from repro.scenarios import get_scenario, scenario_names
from repro.system.config import PipelineConfig
from repro.system.scenarios import ScenarioRunner

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

#: Equal-total-budget comparison points (the paper's low fractions,
#: where allocation quality matters most).
FRACTIONS = (0.05, 0.1, 0.2)

#: The fraction the headline per-scenario gates run at.
OPERATING_FRACTION = 0.1

#: Stress scenarios the per-scenario gates probe.
STRESS_SCENARIOS = ["flash-crowd", "drift", "brownout"]

#: Stress scenarios whose emitted data all reaches the estimator
#: (brownout destroys batches mid-flight; see the module docstring).
VISIBLE_STRESS_SCENARIOS = ["flash-crowd", "drift"]


#: The seeds a gate averages over, per backend (see the module docstring).
STANDARD_SEED = ExperimentScale.quick().config.seed
NUMPY_SEEDS = tuple(range(STANDARD_SEED, STANDARD_SEED + 8))
GATE_SEEDS = {"python": (STANDARD_SEED,), "numpy": NUMPY_SEEDS}


def quick_scale(**knobs):
    """Quick sizing on a config template with ``knobs`` set."""
    return replace(ExperimentScale.quick(), config=PipelineConfig(**knobs))


def seeded_quality(scenario, controller, fraction, backend, workers, seed):
    """(mean loss %, mean bound %) of one seeded quick-scale run."""
    scale = quick_scale(
        backend=backend, seed=seed, budget_controller=controller,
        workers=workers,
    )
    config = base_config(fraction, scale)
    with ScenarioRunner(
        config, uniform_schedule(scale.rate_scale), gaussian_generators(),
        get_scenario(scenario),
    ) as runner:
        outcome = runner.run()
    return outcome.mean_approxiot_loss, outcome.mean_bound_pct


@functools.lru_cache(maxsize=None)
def quality(scenario, controller, fraction, backend, workers=1):
    """(mean loss %, mean bound %) over the backend's gate seeds."""
    runs = [
        seeded_quality(scenario, controller, fraction, backend, workers, seed)
        for seed in GATE_SEEDS[backend]
    ]
    return (
        sum(loss for loss, _ in runs) / len(runs),
        sum(bound for _, bound in runs) / len(runs),
    )


def budget_trace(scenario, controller, fraction, backend="python"):
    """The per-window root-budget trace of one seeded run."""
    scale = quick_scale(backend=backend, budget_controller=controller)
    config = base_config(fraction, scale)
    with ScenarioRunner(
        config, uniform_schedule(scale.rate_scale), gaussian_generators(),
        get_scenario(scenario),
    ) as runner:
        outcome = runner.run()
    return [w.budget for w in outcome.windows]


class TestCatalogGate:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adaptive_beats_every_static_fraction_on_three_scenarios(
        self, backend
    ):
        """The headline claim, at quick scale, per backend."""
        winners = []
        for name in scenario_names():
            if all(
                quality(name, "variance_aware", f, backend)[0]
                < quality(name, "static", f, backend)[0]
                for f in FRACTIONS
            ):
                winners.append(name)
        assert len(winners) >= 3, (
            f"variance_aware swept every fraction only on {winners} "
            f"({backend} backend); the gate needs >= 3 scenarios"
        )


class TestStressScenarios:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", STRESS_SCENARIOS)
    def test_adaptive_never_worse_than_worst_static(self, scenario, backend):
        """Reallocating a fixed budget must not lose to misallocating it."""
        adaptive, _ = quality(
            scenario, "variance_aware", OPERATING_FRACTION, backend
        )
        worst_static = max(
            quality(scenario, "static", f, backend)[0] for f in FRACTIONS
        )
        assert adaptive <= worst_static, (
            f"{scenario} ({backend}): adaptive loss {adaptive:.3f}% exceeds "
            f"the worst static fraction's {worst_static:.3f}%"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", VISIBLE_STRESS_SCENARIOS)
    def test_adaptive_loss_within_reported_bound(self, scenario, backend):
        """Adaptation must not break the Eq. 9 result-plus-error contract."""
        loss, bound = quality(
            scenario, "variance_aware", OPERATING_FRACTION, backend
        )
        assert loss <= bound, (
            f"{scenario} ({backend}): adaptive mean loss {loss:.3f}% "
            f"exceeds the mean reported bound {bound:.3f}%"
        )


class TestShardedQuality:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_adaptive_within_bound_and_worst_static(self, backend):
        """Broadcast-replayed decisions keep the quality guarantees."""
        for scenario in VISIBLE_STRESS_SCENARIOS:
            loss, bound = quality(
                scenario, "variance_aware", OPERATING_FRACTION, backend,
                workers=2,
            )
            worst_static = max(
                quality(scenario, "static", f, backend)[0] for f in FRACTIONS
            )
            assert loss <= bound
            assert loss <= worst_static

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_adaptive_beats_sharded_static_under_drift(self, backend):
        """Same seeds, same shards, same budget — the tilt alone wins."""
        adaptive, _ = quality(
            "drift", "variance_aware", OPERATING_FRACTION, backend, workers=2
        )
        static, _ = quality(
            "drift", "static", OPERATING_FRACTION, backend, workers=2
        )
        assert adaptive < static


class TestFractionController:
    def test_budget_trace_shrinks_toward_target(self):
        """At a rich fraction the bound sits far below the 5% target,
        so the controller sheds budget window over window."""
        adaptive = budget_trace("drift", "adaptive_fraction", 0.2)
        static = budget_trace("drift", "static", 0.2)
        assert adaptive[0] == static[0]  # starts at the assembly budget
        assert all(b >= a for b, a in zip(adaptive, adaptive[1:]))
        assert adaptive[-1] < adaptive[0]

    def test_shed_budget_still_within_reported_bound(self):
        """Shrinking to the target must not break bound coverage."""
        scale = quick_scale(
            backend="python", budget_controller="adaptive_fraction"
        )
        config = base_config(0.2, scale)
        with ScenarioRunner(
            config, uniform_schedule(scale.rate_scale),
            gaussian_generators(), get_scenario("drift"),
        ) as runner:
            outcome = runner.run()
        assert outcome.mean_approxiot_loss <= outcome.mean_bound_pct
