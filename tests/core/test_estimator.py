"""Unit tests for the root-node estimators (§III-C)."""

import math

import pytest

from repro.core.estimator import ThetaStore, estimate_mean, estimate_sum
from repro.core.items import StreamItem, WeightedBatch
from repro.errors import EstimationError


def batch(substream, weight, values):
    return WeightedBatch(
        substream, weight, [StreamItem(substream, float(v)) for v in values]
    )


class TestThetaStore:
    def test_paper_figure3_example(self):
        """Theta = {(3, {5}), (3, {3})} -> SUM = 3*5 + 3*3 = 24."""
        theta = ThetaStore()
        theta.add(batch("s", 3.0, [5]))
        theta.add(batch("s", 3.0, [3]))
        assert estimate_sum(theta) == pytest.approx(24.0)

    def test_per_substream_aggregation(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1, 2]))
        theta.add(batch("a", 4.0, [3]))
        theta.add(batch("b", 1.0, [10]))
        per = theta.per_substream()
        assert per["a"].estimated_sum == pytest.approx(2 * 3 + 4 * 3)
        assert per["a"].estimated_count == pytest.approx(2 * 2 + 4 * 1)
        assert per["a"].sampled_count == 3
        assert per["b"].estimated_sum == pytest.approx(10.0)

    def test_substreams_sorted(self):
        theta = ThetaStore()
        theta.add(batch("z", 1.0, [1]))
        theta.add(batch("a", 1.0, [1]))
        assert theta.substreams == ["a", "z"]

    def test_clear(self):
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1]))
        theta.clear()
        assert len(theta) == 0

    def test_extend(self):
        theta = ThetaStore()
        theta.extend([batch("a", 1.0, [1]), batch("b", 1.0, [2])])
        assert len(theta) == 2


class TestEstimators:
    def test_sum_without_sampling_is_exact(self):
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1, 2, 3]))
        assert estimate_sum(theta) == pytest.approx(6.0)

    def test_sum_accepts_sequence(self):
        assert estimate_sum([batch("a", 2.0, [5])]) == pytest.approx(10.0)

    def test_mean_single_stratum(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1, 3]))  # sum=8, count=4 -> mean=2
        assert estimate_mean(theta) == pytest.approx(2.0)

    def test_mean_weighted_across_strata(self):
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [0, 0]))       # count 2, sum 0
        theta.add(batch("b", 1.0, [10, 10]))     # count 2, sum 20
        assert estimate_mean(theta) == pytest.approx(5.0)

    def test_mean_equals_sum_over_count(self):
        theta = ThetaStore()
        theta.add(batch("a", 3.0, [2, 4, 6]))
        theta.add(batch("b", 2.0, [1, 1]))
        per = theta.per_substream()
        total_count = sum(e.estimated_count for e in per.values())
        assert estimate_mean(theta) == pytest.approx(
            estimate_sum(theta) / total_count
        )

    def test_mean_empty_store_raises(self):
        with pytest.raises(EstimationError):
            estimate_mean(ThetaStore())

    def test_substream_mean_property(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [3, 5]))
        est = theta.per_substream()["a"]
        assert est.estimated_mean == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "bad", [-1.0, 0.0, math.nan, math.inf, -math.inf]
    )
    def test_non_positive_or_non_finite_weight_rejected_at_batch(self, bad):
        with pytest.raises(ValueError):
            WeightedBatch("a", bad, [])


class TestMerge:
    def test_merged_store_equals_union_estimates(self):
        left = ThetaStore()
        left.add(batch("a", 2.0, [1.0, 2.0]))
        right = ThetaStore()
        right.add(batch("a", 3.0, [5.0]))
        right.add(batch("b", 1.0, [7.0]))
        union = ThetaStore()
        for source in (left, right):
            union.extend(source.batches)
        left.merge(right)
        assert estimate_sum(left) == estimate_sum(union)
        assert len(left) == 3
        assert left.substreams == ["a", "b"]
