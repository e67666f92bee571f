"""Unit tests for error estimation (§III-D)."""

import math
import random

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.error_bounds import (
    confidence_multiplier,
    estimate_sum_with_error,
    sample_variance,
    substream_sum_variance,
)
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches
from repro.errors import EstimationError


def batch(substream, weight, values):
    return WeightedBatch(substream, weight, ColumnarBatch.single(substream, values))


class TestSampleVariance:
    def test_matches_textbook_value(self):
        assert sample_variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == (
            pytest.approx(32.0 / 7.0)
        )

    def test_singleton_is_zero(self):
        assert sample_variance([5.0]) == 0.0

    def test_empty_is_zero(self):
        assert sample_variance([]) == 0.0

    def test_constant_values_zero(self):
        assert sample_variance([3.0] * 10) == 0.0


class TestConfidenceMultiplier:
    def test_sigma_rule_exact(self):
        assert confidence_multiplier(0.68) == 1.0
        assert confidence_multiplier(0.95) == 2.0
        assert confidence_multiplier(0.997) == 3.0

    def test_general_quantile(self):
        # 95.45% two-sided is almost exactly 2 sigma.
        assert confidence_multiplier(0.9545) == pytest.approx(2.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(EstimationError):
            confidence_multiplier(1.5)
        with pytest.raises(EstimationError):
            confidence_multiplier(0.0)


class TestSumErrorBound:
    def test_unsampled_data_has_zero_error(self):
        """weight 1 + sampled == population -> FPC kills the variance."""
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1, 2, 3, 4]))
        result = estimate_sum_with_error(theta)
        assert result.value == pytest.approx(10.0)
        assert result.error == pytest.approx(0.0)

    def test_error_positive_when_sampled(self):
        theta = ThetaStore()
        theta.add(batch("a", 4.0, [1.0, 9.0, 5.0]))  # c=12, zeta=3
        result = estimate_sum_with_error(theta)
        assert result.error > 0
        assert result.variance > 0

    def test_interval_endpoints(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1.0, 3.0]))
        result = estimate_sum_with_error(theta, confidence=0.95)
        assert result.lower == result.value - result.error
        assert result.upper == result.value + result.error
        assert result.contains(result.value)

    def test_higher_confidence_wider_interval(self):
        theta = ThetaStore()
        theta.add(batch("a", 4.0, [1.0, 9.0, 5.0]))
        e68 = estimate_sum_with_error(theta, 0.68).error
        e95 = estimate_sum_with_error(theta, 0.95).error
        e997 = estimate_sum_with_error(theta, 0.997).error
        assert e68 < e95 < e997
        assert e95 == pytest.approx(2 * e68)
        assert e997 == pytest.approx(3 * e68)

    def test_variance_is_the_sum_over_strata(self):
        """Eq. 10: strata are sampled independently, variances add."""
        theta = ThetaStore()
        theta.add(batch("a", 4.0, [1.0, 9.0, 5.0]))
        theta.add(batch("b", 3.0, [2.0, 8.0]))
        theta.add(batch("a", 2.0, [7.0]))
        result = estimate_sum_with_error(theta)
        per = theta.per_substream()
        assert result.variance == pytest.approx(
            sum(substream_sum_variance(est) for est in per.values())
        )
        assert result.sampled_items == theta.sampled_items == 6

    def test_empty_store_raises(self):
        with pytest.raises(EstimationError):
            estimate_sum_with_error(ThetaStore())

    def test_coverage_monte_carlo(self):
        """~95% of 2-sigma intervals should cover the true sum."""
        rng = random.Random(42)
        values = [rng.gauss(100, 15) for _ in range(2000)]
        population = [batch("s", 1.0, values)]
        true_sum = sum(values)
        covered = 0
        trials = 300
        for _ in range(trials):
            theta = ThetaStore()
            theta.extend(whsamp_batches(population, 200, rng=rng))
            approx = estimate_sum_with_error(theta, 0.95)
            if approx.contains(true_sum):
                covered += 1
        # Allow slack: the CLT bound is asymptotic.
        assert covered / trials > 0.85

    def test_relative_error(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1.0, 3.0]))
        result = estimate_sum_with_error(theta)
        assert result.relative_error() == pytest.approx(
            abs(result.error / result.value)
        )

    def test_relative_error_zero_estimate_raises(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [0.0, 0.0]))
        result = estimate_sum_with_error(theta)
        with pytest.raises(EstimationError):
            result.relative_error()

    def test_str_formatting(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1.0, 3.0]))
        text = str(estimate_sum_with_error(theta, 0.95))
        assert "±" in text and "95" in text
