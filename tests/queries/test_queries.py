"""Unit tests for the query layer."""

import random

import pytest

from repro.core.estimator import ThetaStore
from repro.core.items import StreamItem, WeightedBatch
from repro.core.whs import whsamp
from repro.errors import EstimationError
from repro.queries.query import (
    CountQuery,
    MeanQuery,
    PerSubstreamSumQuery,
    SumQuery,
)


def batch(substream, weight, values):
    return WeightedBatch(
        substream, weight, [StreamItem(substream, float(v)) for v in values]
    )


def sample_theta():
    theta = ThetaStore()
    theta.add(batch("a", 2.0, [1.0, 2.0, 3.0]))
    theta.add(batch("b", 3.0, [10.0, 20.0]))
    theta.add(batch("c", 1.0, [5.0]))
    return theta


class TestQueries:
    def test_sum_query(self):
        result = SumQuery().execute(sample_theta())
        assert result.value == pytest.approx(2 * 6 + 3 * 30 + 5)

    def test_mean_query(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [4.0, 6.0]))
        result = MeanQuery().execute(theta)
        assert result.value == pytest.approx(5.0)

    def test_count_query_exact(self):
        result = CountQuery().execute(sample_theta())
        assert result.value == pytest.approx(3 * 2 + 2 * 3 + 1)
        assert result.error == 0.0

    def test_count_query_matches_true_count_after_sampling(self):
        rng = random.Random(1)
        items = [StreamItem("s", rng.random()) for _ in range(500)]
        result = whsamp(items, 50, rng=rng)
        theta = ThetaStore()
        theta.extend(result.batches)
        count = CountQuery().execute(theta)
        assert count.value == pytest.approx(500.0)

    def test_per_substream_grouped(self):
        query = PerSubstreamSumQuery()
        grouped = query.execute_grouped(sample_theta())
        assert set(grouped) == {"a", "b", "c"}
        assert grouped["b"].value == pytest.approx(90.0)

    def test_empty_store_raises(self):
        with pytest.raises(EstimationError):
            CountQuery().execute(ThetaStore())
        with pytest.raises(EstimationError):
            PerSubstreamSumQuery().execute_grouped(ThetaStore())


class TestQueryProperties:
    def test_unsampled_window_has_zero_error(self):
        """Weight 1 everywhere means nothing was sampled away."""
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1.0, 2.0, 3.0]))
        result = SumQuery().execute(theta)
        assert result.value == pytest.approx(6.0)
        assert result.error == 0.0

    def test_higher_confidence_widens_the_bound(self):
        theta = sample_theta()
        narrow = SumQuery(confidence=0.95).execute(theta)
        wide = SumQuery(confidence=0.99).execute(theta)
        assert wide.value == narrow.value
        assert wide.error > narrow.error > 0.0
        assert wide.confidence == 0.99

    def test_mean_is_sum_over_count(self):
        theta = sample_theta()
        mean = MeanQuery().execute(theta).value
        total = SumQuery().execute(theta).value
        count = CountQuery().execute(theta).value
        assert mean == pytest.approx(total / count)

    def test_grouped_strata_add_up_to_the_overall_sum(self):
        theta = sample_theta()
        query = PerSubstreamSumQuery()
        grouped = query.execute_grouped(theta)
        overall = query.execute(theta)
        assert overall.value == pytest.approx(SumQuery().execute(theta).value)
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

    @pytest.mark.parametrize("query", [SumQuery(), MeanQuery()])
    def test_sum_and_mean_reject_an_empty_store(self, query):
        with pytest.raises(EstimationError):
            query.execute(ThetaStore())
