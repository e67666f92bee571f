"""Unit tests for the future-work queries (top-k, quantiles)."""

import random

import pytest

from repro.core.estimator import ThetaStore
from repro.core.items import StreamItem, WeightedBatch
from repro.core.whs import whsamp
from repro.errors import EstimationError
from repro.queries.topk import QuantileQuery, TopKQuery


def batch(substream, weight, values):
    return WeightedBatch(
        substream, weight, [StreamItem(substream, float(v)) for v in values]
    )


def ranked_theta():
    theta = ThetaStore()
    theta.add(batch("small", 1.0, [1.0, 1.0]))
    theta.add(batch("mid", 2.0, [50.0, 60.0]))
    theta.add(batch("big", 3.0, [1000.0, 1200.0]))
    return theta


class TestTopK:
    def test_ranks_by_estimated_sum(self):
        ranked = TopKQuery(k=2).execute(ranked_theta())
        assert [r.substream for r in ranked] == ["big", "mid"]
        assert ranked[0].rank == 1
        assert ranked[0].estimated_sum == pytest.approx(3 * 2200.0)

    def test_k_larger_than_strata(self):
        ranked = TopKQuery(k=10).execute(ranked_theta())
        assert len(ranked) == 3

    def test_clearly_separated_ranks_are_stable(self):
        ranked = TopKQuery(k=3).execute(ranked_theta())
        assert all(r.stable for r in ranked)

    def test_overlapping_ranks_flagged_unstable(self):
        theta = ThetaStore()
        rng = random.Random(1)
        # Two strata with nearly equal totals and real sampling noise.
        items = [StreamItem("a", rng.gauss(100, 40)) for _ in range(1000)]
        items += [StreamItem("b", rng.gauss(101, 40)) for _ in range(1000)]
        result = whsamp(items, 100, rng=rng)
        theta.extend(result.batches)
        ranked = TopKQuery(k=2).execute(theta)
        assert ranked[0].stable is False

    def test_validation(self):
        with pytest.raises(EstimationError):
            TopKQuery(k=0)
        with pytest.raises(EstimationError):
            TopKQuery(k=1).execute(ThetaStore())

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True, False, None])
    def test_rejects_non_integer_k(self, k):
        """``k`` is a count: floats, strings and bools fail up front
        instead of dying in the slice or silently ranking ``True == 1``."""
        with pytest.raises(EstimationError, match="integer"):
            TopKQuery(k)

    def test_ranking_matches_truth_after_sampling(self):
        rng = random.Random(2)
        items = []
        truth = {}
        for substream, mu in (("x", 10.0), ("y", 100.0), ("z", 1000.0)):
            values = [rng.gauss(mu, mu * 0.1) for _ in range(2000)]
            truth[substream] = sum(values)
            items.extend(StreamItem(substream, v) for v in values)
        result = whsamp(items, 300, rng=rng)
        theta = ThetaStore()
        theta.extend(result.batches)
        ranked = TopKQuery(k=3).execute(theta)
        true_order = sorted(truth, key=truth.get, reverse=True)
        assert [r.substream for r in ranked] == true_order


class TestQuantile:
    def test_unweighted_median(self):
        theta = ThetaStore()
        theta.add(batch("s", 1.0, [1, 2, 3, 4, 5]))
        estimate = QuantileQuery(0.5).execute(theta)
        assert estimate.value == 3.0

    def test_weights_shift_the_quantile(self):
        theta = ThetaStore()
        # Value 10 represents 9x more mass than value 1.
        theta.add(batch("a", 1.0, [1.0]))
        theta.add(batch("b", 9.0, [10.0]))
        estimate = QuantileQuery(0.5).execute(theta)
        assert estimate.value == 10.0

    def test_band_contains_point_estimate(self):
        theta = ThetaStore()
        theta.add(batch("s", 2.0, list(range(100))))
        estimate = QuantileQuery(0.9).execute(theta)
        assert estimate.lower <= estimate.value <= estimate.upper

    def test_effective_sample_size_unweighted(self):
        theta = ThetaStore()
        theta.add(batch("s", 1.0, list(range(50))))
        estimate = QuantileQuery(0.5).execute(theta)
        assert estimate.effective_sample_size == pytest.approx(50.0)

    def test_quantile_accuracy_after_sampling(self):
        rng = random.Random(3)
        values = [rng.gauss(100, 15) for _ in range(20_000)]
        items = [StreamItem("s", v) for v in values]
        result = whsamp(items, 2_000, rng=rng)
        theta = ThetaStore()
        theta.extend(result.batches)
        estimate = QuantileQuery(0.5).execute(theta)
        exact = sorted(values)[10_000]
        assert estimate.value == pytest.approx(exact, rel=0.02)
        assert estimate.contains(exact)

    def test_validation(self):
        with pytest.raises(EstimationError):
            QuantileQuery(0.0)
        with pytest.raises(EstimationError):
            QuantileQuery(1.0)
        with pytest.raises(EstimationError):
            QuantileQuery(0.5).execute(ThetaStore())
