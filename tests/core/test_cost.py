"""Unit tests for the budget cost functions."""

import pytest

from repro.core.cost import AdaptiveErrorBudget, FractionBudget
from repro.errors import ConfigurationError


class TestFractionBudget:
    def test_basic_scaling(self):
        assert FractionBudget(0.1).sample_size(1000) == 100

    def test_rounding(self):
        assert FractionBudget(0.333).sample_size(10) == 3

    def test_floor_applies(self):
        assert FractionBudget(0.01, floor=5).sample_size(10) == 5

    def test_zero_arrivals_gives_floor(self):
        assert FractionBudget(0.5).sample_size(0) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FractionBudget(0.0)
        with pytest.raises(ConfigurationError):
            FractionBudget(1.5)
        with pytest.raises(ConfigurationError):
            FractionBudget(0.5, floor=0)
        with pytest.raises(ConfigurationError):
            FractionBudget(0.5).sample_size(-1)


class TestAdaptiveErrorBudget:
    def test_grows_when_error_exceeds_target(self):
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.1)
        new = controller.observe(0.2)
        assert new == pytest.approx(0.15)

    def test_shrinks_when_error_far_below_target(self):
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.5)
        new = controller.observe(0.001)
        assert new == pytest.approx(0.45)

    def test_holds_inside_deadband(self):
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.2, slack=0.5)
        new = controller.observe(0.03)  # between 0.025 and 0.05
        assert new == pytest.approx(0.2)

    def test_fraction_capped_at_one(self):
        controller = AdaptiveErrorBudget(0.01, initial_fraction=0.9)
        for _ in range(10):
            controller.observe(1.0)
        assert controller.fraction == 1.0

    def test_fraction_floored(self):
        controller = AdaptiveErrorBudget(0.5, initial_fraction=0.02,
                                         min_fraction=0.01)
        for _ in range(20):
            controller.observe(0.0)
        assert controller.fraction == pytest.approx(0.01)

    def test_history_recorded(self):
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.1)
        controller.observe(0.2)
        controller.observe(0.2)
        assert len(controller.history) == 3

    def test_sample_size_uses_current_fraction(self):
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.1)
        assert controller.sample_size(1000) == 100
        controller.observe(1.0)  # grow to 0.15
        assert controller.sample_size(1000) == 150

    def test_converges_toward_target(self):
        """A synthetic error model ~ 1/sqrt(fraction) should settle."""
        controller = AdaptiveErrorBudget(0.05, initial_fraction=0.02)
        for _ in range(30):
            simulated_error = 0.02 / (controller.fraction ** 0.5)
            controller.observe(simulated_error)
        final_error = 0.02 / (controller.fraction ** 0.5)
        assert final_error <= 0.05 * 1.6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveErrorBudget(0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveErrorBudget(0.05, grow=1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveErrorBudget(0.05, shrink=1.2)
        with pytest.raises(ConfigurationError):
            AdaptiveErrorBudget(0.05, slack=0.0)
        controller = AdaptiveErrorBudget(0.05)
        with pytest.raises(ConfigurationError):
            controller.observe(-0.1)
