"""The §IV-B fraction rule: ``AdaptiveFractionController``.

Three layers of the same contract:

* the rule itself, fed hand-built :class:`WindowObservation` values —
  grow above the target, shrink well below it, hold in the dead band
  and on windows with no relative bound, clamped to
  ``[min_fraction, 1]``;
* hypothesis properties: the fraction never leaves its clamp and the
  response is monotone in the observed bound;
* the loop on a live engine, driven the way
  ``examples/pollution_monitoring.py`` drives it: one
  :class:`EngineRunner`, the controller applied before and fed after
  every window.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import InProcessTransport
from repro.errors import ConfigurationError
from repro.system.adaptive import (
    ADAPTIVE_TARGET_RELATIVE_ERROR,
    AdaptiveFractionController,
    WindowObservation,
    make_budget_controller,
    observe_window,
)
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import GaussianSubstream, paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "test", {"A": 400.0, "B": 400.0, "C": 400.0, "D": 400.0}
)


def seen(bound):
    """One window's observation carrying only a relative bound."""
    return WindowObservation(window=0, relative_bound=bound, substreams=())


def controller_after(target, initial, bounds, min_fraction=0.01):
    controller = AdaptiveFractionController(
        target, initial, min_fraction=min_fraction
    )
    for bound in bounds:
        controller.observe(seen(bound))
    return controller


class TestFractionRule:
    def test_grows_when_bound_exceeds_target(self):
        assert controller_after(0.05, 0.1, [0.2]).fraction == pytest.approx(0.15)

    def test_shrinks_when_bound_far_below_target(self):
        assert controller_after(0.05, 0.5, [0.001]).fraction == pytest.approx(
            0.45
        )

    def test_holds_inside_dead_band(self):
        # Between target * 0.5 = 0.025 and the target 0.05.
        assert controller_after(0.05, 0.2, [0.03]).fraction == 0.2

    def test_fraction_capped_at_one(self):
        assert controller_after(0.01, 0.9, [1.0] * 10).fraction == 1.0

    def test_fraction_floored(self):
        controller = controller_after(0.5, 0.02, [0.0] * 20, min_fraction=0.01)
        assert controller.fraction == pytest.approx(0.01)

    def test_steps_are_the_same_float_operations(self):
        """x1.5 per over-target window, bit for bit: 2 % -> 34.2 %."""
        controller = AdaptiveFractionController(0.002, 0.02)
        expected = 0.02
        for _ in range(7):
            controller.observe(seen(0.02))
            expected = min(1.0, expected * 1.5)
            assert controller.fraction == expected

    def test_converges_toward_target(self):
        """A synthetic error model ~ 1/sqrt(fraction) should settle."""
        controller = AdaptiveFractionController(0.05, 0.02)
        for _ in range(30):
            controller.observe(seen(0.02 / controller.fraction ** 0.5))
        assert 0.02 / controller.fraction ** 0.5 <= 0.05 * 1.6

    def test_empty_window_holds(self):
        controller = controller_after(0.05, 0.3, [])
        controller.observe(None)
        assert controller.fraction == 0.3

    def test_window_without_relative_bound_holds(self):
        """A zero estimate has no relative bound: not a perfect one."""
        assert controller_after(0.05, 0.3, [None] * 5).fraction == 0.3

    @pytest.mark.parametrize(
        "target, initial, min_fraction",
        [
            (0.0, 0.1, 0.01),
            (-0.05, 0.1, 0.01),
            (0.05, 0.0, 0.01),
            (0.05, 1.5, 0.01),
            (0.05, 0.1, 0.0),
            (0.05, 0.1, 1.5),
        ],
    )
    def test_validation(self, target, initial, min_fraction):
        with pytest.raises(ConfigurationError):
            AdaptiveFractionController(
                target, initial, min_fraction=min_fraction
            )

    def test_negative_error_rejected(self):
        controller = AdaptiveFractionController(0.05, 0.1)
        with pytest.raises(ConfigurationError):
            controller.observe(seen(-0.1))
        assert controller.fraction == 0.1

    def test_three_settable_values(self):
        parameters = inspect.signature(AdaptiveFractionController).parameters
        assert list(parameters) == [
            "target_relative_error", "initial_fraction", "min_fraction",
        ]


class TestBudgets:
    def pipeline(self, fraction=0.1):
        config = PipelineConfig(sampling_fraction=fraction, seed=11)
        return build_pipeline(config, SCHEDULE, GENS)

    def test_config_fraction_keeps_the_assembly_budgets(self):
        pipeline = self.pipeline()
        assembled = dict(pipeline.budgets)
        root = AdaptiveFractionController(0.05, 0.1).begin_window(pipeline)
        assert pipeline.budgets == assembled
        assert root == assembled["root"]

    def test_budgets_follow_the_live_fraction(self):
        pipeline = self.pipeline()
        controller = controller_after(0.05, 0.1, [1.0])  # grows to 0.15
        root = controller.begin_window(pipeline)
        assert pipeline.budgets == pipeline.budgets_for_fraction(
            controller.fraction
        )
        assert root == pipeline.budgets["root"]
        assert root > self.pipeline().budgets["root"]

    @pytest.mark.parametrize("fraction, floor", [(0.2, 0.01), (0.005, 0.005)])
    def test_config_controller_targets_and_floors(self, fraction, floor):
        config = PipelineConfig(
            sampling_fraction=fraction, budget_controller="adaptive_fraction"
        )
        controller = make_budget_controller("adaptive_fraction", config)
        assert controller.fraction == fraction
        controller.observe(seen(ADAPTIVE_TARGET_RELATIVE_ERROR * 0.6))
        assert controller.fraction == fraction  # inside the dead band
        for _ in range(100):
            controller.observe(seen(0.0))
        assert controller.fraction == pytest.approx(floor)


errors_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=30,
)


@given(target=st.floats(min_value=1e-6, max_value=1.0),
       initial=st.floats(min_value=0.01, max_value=1.0),
       min_fraction=st.floats(min_value=0.001, max_value=0.01),
       errors=errors_strategy)
@settings(max_examples=200, deadline=None)
def test_fraction_stays_clamped(target, initial, min_fraction, errors):
    """The fraction never leaves [min_fraction, 1] under any feedback."""
    controller = AdaptiveFractionController(
        target, initial, min_fraction=min_fraction
    )
    for error in errors:
        controller.observe(seen(error))
        assert min_fraction <= controller.fraction <= 1.0


@given(target=st.floats(min_value=1e-6, max_value=1.0),
       initial=st.floats(min_value=0.01, max_value=1.0),
       errors=errors_strategy,
       probe=st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_fraction_response_is_monotone(target, initial, errors, probe):
    """Bound above target never shrinks; well below never grows.

    Whatever state a feedback history left the controller in, the next
    observation moves the fraction in the direction §IV-B prescribes.
    """
    controller = controller_after(target, initial, errors, min_fraction=0.001)
    before = controller.fraction
    controller.observe(seen(probe))
    after = controller.fraction
    if probe > target:
        assert after >= before
    elif probe < target * 0.5:
        assert after <= before
    else:
        assert after == before


def drive(target, initial, windows, generators=GENS, schedule=SCHEDULE):
    """The example's loop: fractions used and relative bounds seen."""
    config = PipelineConfig(sampling_fraction=initial, seed=11)
    runner = EngineRunner(
        build_pipeline(config, schedule, generators), InProcessTransport()
    )
    controller = AdaptiveFractionController(target, initial)
    fractions, bounds = [], []
    for index in range(windows):
        fractions.append(controller.fraction)
        controller.begin_window(runner.pipeline)
        outcome, theta = runner.run_window_with_theta()
        observation = (
            None if theta is None
            else observe_window(index, theta, outcome.approx_sum)
        )
        controller.observe(observation)
        bounds.append(None if observation is None else observation.relative_bound)
    return fractions, bounds


class TestLoopOnTheEngine:
    def test_fraction_grows_under_tight_target(self):
        fractions, _ = drive(target=1e-6, initial=0.05, windows=6)
        assert fractions[-1] > 0.05
        assert fractions == sorted(fractions)

    def test_fraction_shrinks_under_loose_target(self):
        fractions, _ = drive(target=0.5, initial=0.8, windows=6)
        assert fractions[-1] < 0.8

    def test_errors_tighten_as_fraction_grows(self):
        _, bounds = drive(target=1e-9, initial=0.02, windows=10)
        assert sum(bounds[-3:]) / 3 < sum(bounds[:3]) / 3

    def test_all_zero_data_holds_the_fraction(self):
        """Every window estimates 0, so no window has a relative bound."""
        zero_gens = {
            name: GaussianSubstream(name, mu=0.0, sigma=0.0)
            for name in ("A", "B", "C", "D")
        }
        fractions, bounds = drive(
            target=0.05, initial=0.1, windows=5, generators=zero_gens
        )
        assert fractions == [0.1] * 5
        assert bounds == [None] * 5

    def test_empty_windows_hold_the_fraction(self):
        """No source emits: every window is (None, None) and holds."""
        silent = RateSchedule("silent", {name: 0.0 for name in "ABCD"})
        fractions, bounds = drive(
            target=1e-6, initial=0.1, windows=4, schedule=silent
        )
        assert fractions == [0.1] * 4
        assert bounds == [None] * 4

    def test_caller_held_loop_is_the_config_loop(self):
        """Driving the controller by hand replays ``budget_controller``."""
        config = PipelineConfig(
            sampling_fraction=0.02, seed=11,
            budget_controller="adaptive_fraction",
        )
        runner = EngineRunner(
            build_pipeline(config, SCHEDULE, GENS), InProcessTransport()
        )
        in_engine = [runner.run_window() for _ in range(6)]
        _, bounds = drive(
            ADAPTIVE_TARGET_RELATIVE_ERROR, initial=0.02, windows=6
        )
        assert [
            w.approx_sum.relative_error() for w in in_engine
        ] == bounds
