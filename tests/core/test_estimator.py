"""Unit tests for the root-node estimators (§III-C)."""

import math

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.error_bounds import estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.errors import EstimationError


def batch(substream, weight, values):
    return WeightedBatch(substream, weight, ColumnarBatch.single(substream, values))


def sum_star(theta):
    """SUM* (Eq. 4) as the engine reads it: the bounded estimate's value."""
    return estimate_sum_with_error(theta).value


class TestThetaStore:
    def test_paper_figure3_example(self):
        """Theta = {(3, {5}), (3, {3})} -> SUM = 3*5 + 3*3 = 24."""
        theta = ThetaStore()
        theta.add(batch("s", 3.0, [5]))
        theta.add(batch("s", 3.0, [3]))
        assert sum_star(theta) == pytest.approx(24.0)

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

    def test_per_substream_keys_are_the_stored_strata(self):
        theta = ThetaStore()
        theta.add(batch("z", 1.0, [1]))
        theta.add(batch("a", 1.0, [1]))
        assert sorted(theta.per_substream()) == ["a", "z"]

    def test_batches_is_a_snapshot(self):
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1]))
        theta.batches.clear()
        assert len(theta) == 1
        assert theta.sampled_items == 1

    def test_sampled_items_counts_physical_items_across_pairs(self):
        theta = ThetaStore()
        theta.extend([batch("a", 5.0, [1, 2]), batch("a", 1.0, [3])])
        theta.add(batch("b", 2.0, [4, 5, 6]))
        assert len(theta) == 3
        assert theta.sampled_items == 6

    def test_sampled_values_concatenate_in_arrival_order(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1, 2]))
        theta.add(batch("b", 1.0, [9]))
        theta.add(batch("a", 4.0, [3]))
        per = theta.per_substream()
        assert list(per["a"].sampled_values) == [1.0, 2.0, 3.0]
        assert list(per["b"].sampled_values) == [9.0]

    def test_extend_takes_any_iterable(self):
        theta = ThetaStore()
        theta.extend(batch("a", 1.0, [v]) for v in range(4))
        assert len(theta) == 4
        assert [b.items.values[0] for b in theta.batches] == [0, 1, 2, 3]

    def test_extend(self):
        theta = ThetaStore()
        theta.extend([batch("a", 1.0, [1]), batch("b", 1.0, [2])])
        assert len(theta) == 2


class TestEstimators:
    def test_sum_without_sampling_is_exact(self):
        theta = ThetaStore()
        theta.add(batch("a", 1.0, [1, 2, 3]))
        assert sum_star(theta) == pytest.approx(6.0)

    def test_sum_carries_its_bound_and_sample_size(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1, 3]))
        result = estimate_sum_with_error(theta)
        assert result.value == pytest.approx(8.0)
        assert result.sampled_items == 2
        assert result.error > 0

    def test_sum_empty_store_raises(self):
        with pytest.raises(EstimationError):
            estimate_sum_with_error(ThetaStore())

    @pytest.mark.parametrize(
        "bad", [-1.0, 0.0, math.nan, math.inf, -math.inf]
    )
    def test_non_positive_or_non_finite_weight_rejected_at_batch(self, bad):
        with pytest.raises(ValueError):
            WeightedBatch("a", bad, [])


class TestMerge:
    def test_merging_an_empty_store_changes_nothing(self):
        theta = ThetaStore()
        theta.add(batch("a", 2.0, [1.0]))
        theta.merge(ThetaStore())
        assert len(theta) == 1
        assert sum_star(theta) == pytest.approx(2.0)

    def test_merge_leaves_the_other_store_as_it_was(self):
        left, right = ThetaStore(), ThetaStore()
        right.add(batch("b", 1.0, [7.0]))
        left.merge(right)
        left.add(batch("c", 1.0, [1.0]))
        assert len(right) == 1
        assert [b.substream for b in left.batches] == ["b", "c"]

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
        assert sum_star(left) == sum_star(union)
        assert len(left) == 3
        assert left.batches == union.batches
