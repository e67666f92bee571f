"""Unit tests for the query layer: SUM* and its grouped form."""

import random

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.error_bounds import estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches
from repro.errors import EstimationError
from repro.queries.query import PerSubstreamSumQuery


def batch(substream, weight, values):
    return WeightedBatch(substream, weight, ColumnarBatch.single(substream, values))


def sample_theta():
    theta = ThetaStore()
    theta.add(batch("a", 2.0, [1.0, 2.0, 3.0]))
    theta.add(batch("b", 3.0, [10.0, 20.0]))
    theta.add(batch("c", 1.0, [5.0]))
    return theta


def recovered_count(theta):
    """Eq. 8's count: the sum of ``|I| * W_out`` over every stratum."""
    return sum(
        estimate.estimated_count for estimate in theta.per_substream().values()
    )


class TestQueries:
    def test_sum_query(self):
        result = estimate_sum_with_error(sample_theta())
        assert result.value == pytest.approx(2 * 6 + 3 * 30 + 5)

    def test_count_recovery_exact(self):
        assert recovered_count(sample_theta()) == pytest.approx(3 * 2 + 2 * 3 + 1)

    def test_count_matches_true_count_after_sampling(self):
        rng = random.Random(1)
        arrivals = [batch("s", 1.0, [rng.random() for _ in range(500)])]
        theta = ThetaStore()
        theta.extend(whsamp_batches(arrivals, 50, rng=rng))
        assert recovered_count(theta) == pytest.approx(500.0)

    def test_per_substream_grouped(self):
        query = PerSubstreamSumQuery()
        grouped = query.execute_grouped(sample_theta())
        assert set(grouped) == {"a", "b", "c"}
        assert grouped["b"].value == pytest.approx(90.0)

    def test_empty_store_raises(self):
        with pytest.raises(EstimationError):
            estimate_sum_with_error(ThetaStore())
        with pytest.raises(EstimationError):
            PerSubstreamSumQuery().execute_grouped(ThetaStore())


class TestQueryProperties:
    def test_unsampled_window_has_zero_error(self):
        """Weight 1 everywhere means nothing was sampled away."""
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1.0, 2.0, 3.0]))
        result = estimate_sum_with_error(theta)
        assert result.value == pytest.approx(6.0)
        assert result.error == 0.0

    def test_higher_confidence_widens_the_bound(self):
        theta = sample_theta()
        narrow = estimate_sum_with_error(theta, 0.95)
        wide = estimate_sum_with_error(theta, 0.99)
        assert wide.value == narrow.value
        assert wide.error > narrow.error > 0.0
        assert wide.confidence == 0.99

    def test_grouped_confidence_widens_each_stratum(self):
        theta = sample_theta()
        narrow = PerSubstreamSumQuery(confidence=0.95).execute_grouped(theta)
        wide = PerSubstreamSumQuery(confidence=0.99).execute_grouped(theta)
        for substream in ("a", "b"):
            assert wide[substream].value == narrow[substream].value
            assert wide[substream].error > narrow[substream].error > 0.0
            assert wide[substream].confidence == 0.99

    def test_grouped_strata_add_up_to_the_overall_sum(self):
        theta = sample_theta()
        grouped = PerSubstreamSumQuery().execute_grouped(theta)
        overall = estimate_sum_with_error(theta)
        assert sum(r.value for r in grouped.values()) == pytest.approx(
            overall.value
        )
        assert sum(r.variance for r in grouped.values()) == pytest.approx(
            overall.variance
        )

    def test_grouped_reports_sampled_items_per_stratum(self):
        grouped = PerSubstreamSumQuery().execute_grouped(sample_theta())
        assert {s: r.sampled_items for s, r in grouped.items()} == {
            "a": 3, "b": 2, "c": 1,
        }

    def test_one_sigma_level_reports_the_standard_deviation(self):
        grouped = PerSubstreamSumQuery(confidence=0.68).execute_grouped(
            sample_theta()
        )
        for result in grouped.values():
            assert result.error == pytest.approx(result.variance ** 0.5)

    def test_grouped_bounds_cover_the_true_stratum_sums(self):
        """Over repeated WHSamp draws each stratum's 95 % interval
        covers its exact sum about 95 % of the time."""
        rng = random.Random(3)
        truth = {"a": [rng.gauss(10, 2) for _ in range(400)],
                 "b": [rng.gauss(100, 30) for _ in range(200)]}
        arrivals = [batch(s, 1.0, values) for s, values in truth.items()]
        covered = {"a": 0, "b": 0}
        trials = 200
        for trial in range(trials):
            theta = ThetaStore()
            theta.extend(
                whsamp_batches(arrivals, 60, rng=random.Random(trial))
            )
            grouped = PerSubstreamSumQuery().execute_grouped(theta)
            for substream, values in truth.items():
                covered[substream] += grouped[substream].contains(sum(values))
        for substream in truth:
            assert 0.85 <= covered[substream] / trials <= 1.0

    def test_unsampled_stratum_has_a_zero_width_bound(self):
        grouped = PerSubstreamSumQuery().execute_grouped(sample_theta())
        assert grouped["c"].value == pytest.approx(5.0)
        assert grouped["c"].error == 0.0
