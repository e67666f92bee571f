"""Distribution checks: each vector draw hook against its scalar twin.

The ``numpy`` backend draws different *identities* than the ``python``
backend, so the two are compared by fixed-seed moments: every hook must
land where its scalar twin lands, within sampling error.
"""

import random

import pytest

np = pytest.importorskip("numpy", reason="vector hooks need numpy")

from repro.core.srs import CoinFlipSampler  # noqa: E402
from repro.workloads.pollution import POLLUTANTS, PollutantSubstream  # noqa: E402
from repro.workloads.skew import paper_skewed_mixture  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    GaussianSubstream,
    PoissonSubstream,
)
from repro.workloads.taxi import BoroughSubstream  # noqa: E402

N = 40_000


def vector(generator, count=N, seed=1):
    return generator.draw_columns(count, np.random.default_rng(seed), 2.0)


def scalar(generator, count=N, seed=1):
    return np.asarray(
        generator.generate_columns(count, random.Random(seed), 2.0).values
    )


class TestGaussian:
    def test_mean_and_sigma_match_the_scalar_twin(self):
        generator = GaussianSubstream("C", 10_000.0, 500.0)
        for values in (vector(generator).values, scalar(generator)):
            assert values.mean() == pytest.approx(10_000.0, abs=5 * 500 / N**0.5)
            assert values.std() == pytest.approx(500.0, rel=0.02)

    def test_batch_shape(self):
        batch = vector(GaussianSubstream("C", 1.0, 0.0, item_bytes=7), 5)
        assert batch.uniform_substream == "C" and batch.sizes == 7
        assert list(batch.timestamps) == [2.0] * 5
        assert batch.values.dtype == np.float64


class TestPoisson:
    @pytest.mark.parametrize("lam", [10.0, 1000.0, 1e7])
    def test_mean_equals_variance_equals_lambda(self, lam):
        values = vector(PoissonSubstream("X", lam)).values
        assert values.dtype == np.float64
        assert np.all(values >= 0) and np.all(values == np.round(values))
        assert values.mean() == pytest.approx(lam, abs=5 * (lam / N) ** 0.5)
        assert values.var() == pytest.approx(lam, rel=0.05)

    def test_scalar_twin_agrees(self):
        generator = PoissonSubstream("X", 100.0)
        assert scalar(generator, 8000).mean() == pytest.approx(
            vector(generator, 8000).values.mean(), rel=0.01
        )


class TestTaxi:
    def test_fare_quantiles_match_the_scalar_twin(self):
        generator = BoroughSubstream("queens")
        batch = vector(generator)
        assert batch.uniform_substream == "taxi/queens" and batch.sizes == 180
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        assert np.quantile(batch.values, quantiles) == pytest.approx(
            np.quantile(scalar(generator), quantiles), rel=0.04
        )
        # Flagfall floor, the 50-mile cap, and cents resolution.
        assert batch.values.min() >= 2.5
        assert batch.values.max() <= 2.5 + 2.5 * 50.0 * 1.30 + 1.0
        assert np.allclose(batch.values * 100, np.round(batch.values * 100))


class TestSkewedMixture:
    def test_counts_are_exact_and_records_shuffled(self):
        mixture = paper_skewed_mixture()
        batch = mixture.draw_columns(20_000, np.random.default_rng(3), 1.0)
        ids = batch.substream_ids()
        counts = {name: ids.count(name) for name in "ABCD"}
        assert counts == mixture.counts_for(20_000)
        assert ids[: counts["A"]] != ["A"] * counts["A"]  # not stacked
        by_stratum = batch.group_by_substream()
        assert by_stratum["D"].values.mean() == pytest.approx(1e7, rel=0.01)
        assert by_stratum["A"].values.mean() == pytest.approx(10.0, rel=0.02)


class TestPollution:
    def test_level_stays_nonnegative_with_ar1_memory(self):
        generator = PollutantSubstream("so2")
        values = np.asarray(vector(generator).values)
        assert values.min() >= 0.0
        baseline, _scale = POLLUTANTS["so2"]
        assert values.mean() == pytest.approx(baseline, rel=0.05)
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert lag1 == pytest.approx(0.95, abs=0.01)

    def test_clamp_and_state_carry_across_draws(self):
        generator = PollutantSubstream("so2")
        generator._level = 0.0
        gen = np.random.default_rng(0)
        first = generator.draw_columns(50, gen).values
        assert min(first) >= 0.0
        level = generator._level
        second = generator.draw_columns(1, gen).values
        assert abs(second[0] - level) < 6.0  # continues, does not restart


class TestCoinFlip:
    def test_kept_count_within_five_sigma_and_counters_exact(self):
        fraction, count = 0.1, 100_000
        sampler = CoinFlipSampler(fraction, random.Random(9), backend="numpy")
        mask = sampler.decisions(count)
        sigma = (count * fraction * (1 - fraction)) ** 0.5
        assert abs(int(mask.sum()) - count * fraction) <= 5 * sigma
        assert (sampler.seen, sampler.kept) == (count, int(mask.sum()))
        kept = sampler.filter(list(range(1000)))
        assert sampler.seen == count + 1000
        assert sampler.kept == int(mask.sum()) + len(kept)
        assert kept == sorted(kept)  # arrival order preserved
        other = CoinFlipSampler(fraction, random.Random(10), backend="numpy")
        other.decisions(500)
        seen, kept_total = sampler.seen, sampler.kept
        sampler.merge_counters(other)
        assert sampler.seen == seen + 500
        assert sampler.kept == kept_total + other.kept

    def test_offer_uses_the_same_generator(self):
        sampler = CoinFlipSampler(0.5, random.Random(1), backend="numpy")
        kept = [sampler.offer(i) for i in range(2000)]
        assert sampler.seen == 2000
        assert sampler.kept == sum(item is not None for item in kept)
        assert 850 < sampler.kept < 1150
