"""Distribution checks: each draw hook against its analytic moments.

Fixed seeds, so every check is deterministic; the bands are a few
standard errors wide around the distribution's closed-form mean,
standard deviation or rate.
"""

import math
import random
from statistics import NormalDist

import numpy as np
import pytest

from repro.core.fastpath import make_generator
from repro.core.srs import coin_flips
from repro.workloads.pollution import POLLUTANTS, PollutantSubstream
from repro.workloads.skew import paper_skewed_mixture
from repro.workloads.synthetic import GaussianSubstream, PoissonSubstream
from repro.workloads.taxi import BoroughSubstream

N = 40_000


def vector(generator, count=N, seed=1):
    return generator.draw_columns(count, np.random.default_rng(seed), 2.0)


class TestGaussian:
    def test_mean_and_sigma_are_mu_and_sigma(self):
        values = vector(GaussianSubstream("C", 10_000.0, 500.0)).values
        assert values.mean() == pytest.approx(10_000.0, abs=5 * 500 / N**0.5)
        # sd(s) ~ sigma / sqrt(2N): 5 standard errors is under 2 %.
        assert values.std() == pytest.approx(500.0, rel=0.02)

    def test_batch_shape(self):
        batch = vector(GaussianSubstream("C", 1.0, 0.0, item_bytes=7), 5)
        assert batch.uniform_substream == "C" and batch.sizes == 7
        assert batch.timestamps == 2.0 and isinstance(batch.timestamps, float)
        assert batch.values.dtype == np.float64


class TestPoisson:
    @pytest.mark.parametrize("lam", [10.0, 1000.0, 1e7])
    def test_mean_equals_variance_equals_lambda(self, lam):
        values = vector(PoissonSubstream("X", lam)).values
        assert values.dtype == np.float64
        assert np.all(values >= 0) and np.all(values == np.round(values))
        assert values.mean() == pytest.approx(lam, abs=5 * (lam / N) ** 0.5)
        assert values.var() == pytest.approx(lam, rel=0.05)


def capped_lognormal_mean(mu, sigma, cap):
    """``E[min(X, cap)]`` for ``X ~ lognormal(mu, sigma)``, closed form."""
    phi = NormalDist().cdf
    log_cap = math.log(cap)
    below = math.exp(mu + sigma**2 / 2) * phi((log_cap - mu - sigma**2) / sigma)
    return below + cap * (1 - phi((log_cap - mu) / sigma))


class TestTaxi:
    def test_total_amount_mean_follows_the_marginals(self):
        """distance ~ min(50, lognormal(0.55, 0.85)); fare = 2.50 + 2.50
        per mile; surcharge uniform on {0, 0.5, 1}; a tip of
        U(5 %, 30 %) of the fare on 55 % of rides."""
        generator = BoroughSubstream("queens")
        batch = vector(generator)
        assert batch.uniform_substream == "taxi/queens" and batch.sizes == 180
        fare = 2.5 + 2.5 * capped_lognormal_mean(0.55, 0.85, 50.0)
        expected = fare * (1 + 0.55 * 0.175) + 0.5
        standard_error = batch.values.std() / N**0.5
        assert batch.values.mean() == pytest.approx(
            expected, abs=5 * standard_error
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
    def test_kept_count_within_five_sigma(self):
        fraction, count = 0.1, 100_000
        mask = coin_flips(make_generator(random.Random(9)), fraction, count)
        sigma = (count * fraction * (1 - fraction)) ** 0.5
        assert abs(int(mask.sum()) - count * fraction) <= 5 * sigma

    def test_half_fraction_keeps_about_half(self):
        mask = coin_flips(make_generator(random.Random(1)), 0.5, 2000)
        assert 850 < int(mask.sum()) < 1150
