"""Unit tests for the coin-flip SRS baseline."""

import random

import numpy as np
import pytest

from repro.core.fastpath import make_generator
from repro.core.srs import coin_flips
from repro.errors import SamplingError


def gen_for(seed):
    return make_generator(random.Random(seed))


def horvitz_thompson(values, mask, fraction):
    """The SRS baseline's estimate: kept values scaled by 1/fraction."""
    return float(np.asarray(values)[mask].sum()) / fraction


class TestCoinFlips:
    def test_fraction_one_keeps_everything(self):
        assert coin_flips(gen_for(1), 1.0, 100).all()

    def test_keep_rate_close_to_fraction(self):
        mask = coin_flips(gen_for(2), 0.3, 20000)
        assert len(mask) == 20000
        assert int(mask.sum()) == pytest.approx(6000, rel=0.05)

    def test_mask_is_boolean_per_record(self):
        mask = coin_flips(gen_for(3), 0.5, 200)
        assert mask.dtype == bool and mask.shape == (200,)
        assert set(mask.tolist()) == {True, False}

    def test_invalid_fractions_rejected(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(SamplingError):
                coin_flips(gen_for(4), bad, 10)

    def test_nan_fraction_rejected(self):
        with pytest.raises(SamplingError):
            coin_flips(gen_for(4), float("nan"), 10)

    def test_zero_records_draw_nothing(self):
        gen = gen_for(4)
        assert len(coin_flips(gen, 0.5, 0)) == 0
        assert gen.random() == gen_for(4).random()

    def test_order_preserved(self):
        items = list(range(1000))
        mask = coin_flips(gen_for(5), 0.5, len(items))
        kept = [item for item, keep in zip(items, mask) if keep]
        assert kept == sorted(kept)

    def test_one_draw_per_record_from_the_callers_generator(self):
        """Two calls consume the stream a single call of both sizes
        would: the decisions depend on nothing but the generator."""
        gen = gen_for(6)
        split = np.concatenate([
            coin_flips(gen, 0.2, 300), coin_flips(gen, 0.2, 700)
        ])
        assert split.tobytes() == coin_flips(gen_for(6), 0.2, 1000).tobytes()


class TestEstimator:
    def test_horvitz_thompson_exact_at_full_fraction(self):
        values = [1.0, 2.0, 3.0]
        mask = coin_flips(gen_for(1), 1.0, len(values))
        assert horvitz_thompson(values, mask, 1.0) == pytest.approx(6.0)

    def test_unbiasedness_monte_carlo(self):
        """HT estimate over coin-flip samples averages to the true sum."""
        population = [float(i) for i in range(1, 201)]
        true_sum = sum(population)
        gen = gen_for(6)
        estimates = [
            horvitz_thompson(
                population, coin_flips(gen, 0.2, len(population)), 0.2
            )
            for _ in range(800)
        ]
        mean_estimate = sum(estimates) / len(estimates)
        assert mean_estimate == pytest.approx(true_sum, rel=0.02)

    def test_srs_misses_rare_substream_often(self):
        """The failure mode stratification fixes: rare strata vanish."""
        gen = gen_for(7)
        # 1000 common items and 2 rare, high-value ones.
        population = np.array(["common"] * 1000 + ["rare"] * 2)
        misses = 0
        for _ in range(300):
            kept = population[coin_flips(gen, 0.05, len(population))]
            if "rare" not in kept:
                misses += 1
        # P(miss both) = 0.95^2 ~ 0.90: the rare stratum usually vanishes.
        assert misses > 200
