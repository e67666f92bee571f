"""Unit tests for the budget cost functions."""

import pytest

from repro.core.cost import FractionBudget
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

