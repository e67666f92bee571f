"""Integration tests for the statistical pipeline runner."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, PipelineError
from repro.system.config import ExecutionMode, PipelineConfig
from repro.system.statistical import StatisticalRunner, accuracy_loss
from repro.workloads.pollution import pollutant_generators
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "test", {"A": 400.0, "B": 400.0, "C": 400.0, "D": 400.0}
)


def make_runner(fraction=0.1, seed=1, **kwargs):
    config = PipelineConfig(
        sampling_fraction=fraction, window_seconds=1.0, seed=seed, **kwargs
    )
    return StatisticalRunner(config, SCHEDULE, GENS)


class TestAccuracyLoss:
    def test_basic(self):
        assert accuracy_loss(90.0, 100.0) == pytest.approx(10.0)

    def test_zero_exact_rejected(self):
        with pytest.raises(PipelineError):
            accuracy_loss(1.0, 0.0)


class TestWindowOutcome:
    def test_exact_and_counts(self):
        outcome = make_runner().run_window()
        assert outcome.items_emitted == 1600
        assert outcome.exact_sum > 0
        assert 0 < outcome.items_sampled < outcome.items_emitted

    def test_realized_fraction_near_configured(self):
        run = make_runner(fraction=0.1).run(5)
        assert run.realized_fraction == pytest.approx(0.1, rel=0.15)

    def test_full_fraction_is_lossless(self):
        outcome = make_runner(fraction=1.0).run_window()
        assert outcome.approxiot_loss == pytest.approx(0.0, abs=1e-9)
        assert outcome.items_sampled == outcome.items_emitted

    def test_window_indices_increment(self):
        runner = make_runner()
        assert runner.run_window().window_index == 1
        assert runner.run_window().window_index == 2


class TestAccuracyProperties:
    def test_approxiot_beats_srs(self):
        """The paper's core claim, at the 10% fraction."""
        run = make_runner(fraction=0.1, seed=3).run(8)
        assert run.mean_approxiot_loss < run.mean_srs_loss

    def test_loss_decreases_with_fraction(self):
        low = make_runner(fraction=0.1, seed=4).run(6).mean_approxiot_loss
        high = make_runner(fraction=0.8, seed=4).run(6).mean_approxiot_loss
        assert high < low

    def test_error_bound_covers_exact_usually(self):
        runner = make_runner(fraction=0.2, seed=5)
        covered = 0
        windows = 20
        for _ in range(windows):
            outcome = runner.run_window()
            if outcome.approx_sum.contains(outcome.exact_sum):
                covered += 1
        assert covered / windows >= 0.8  # 95% nominal, CLT slack

    def test_estimated_count_matches_emitted(self, fresh):
        """Eq. 8 end-to-end through the whole 4-layer tree.

        Run the tree manually so we can inspect Theta: the recovered
        item count must equal the emitted count exactly, not merely in
        expectation.
        """
        import random

        from repro.core.estimator import ThetaStore
        from repro.core.whs import whsamp_batches

        rng = random.Random(6)
        raw = [
            fresh("a", [rng.random() for _ in range(1200)]),
            fresh("b", [rng.random() for _ in range(400)]),
        ]
        l1 = whsamp_batches(raw, 160, rng=rng)
        l2 = whsamp_batches(l1, 160, rng=rng)
        theta = ThetaStore()
        theta.extend(whsamp_batches(l2, 160, rng=rng))
        recovered = sum(
            est.estimated_count for est in theta.per_substream().values()
        )
        assert recovered == pytest.approx(1600.0, rel=1e-9)


class TestCallerGenerators:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_over_one_generator_dict_agree(self, workers):
        """A run leaves the caller's stateful generators (AR(1) levels)
        as it found them, so the next run over the same dict repeats it."""
        generators = pollutant_generators()
        schedule = RateSchedule("pollution", dict.fromkeys(generators, 400.0))
        config = PipelineConfig(sampling_fraction=0.4, seed=5, workers=workers)
        outcomes = []
        for _ in range(2):
            with StatisticalRunner(config, schedule, generators) as runner:
                outcomes.append(runner.run(2))
        assert outcomes[0] == outcomes[1]


class TestValidation:
    def test_missing_generator(self):
        config = PipelineConfig(sampling_fraction=0.5)
        schedule = RateSchedule("s", {"Z": 100.0})
        with pytest.raises(PipelineError):
            StatisticalRunner(config, schedule, GENS)

    def test_bad_window_count(self):
        with pytest.raises(PipelineError):
            make_runner().run(0)

    def test_bad_fraction_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(sampling_fraction=0.0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(sampling_fraction=1.2)

    def test_config_mode_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(mode="warp-drive")

    def test_config_copies(self):
        config = PipelineConfig(sampling_fraction=0.3)
        srs = replace(config, mode=ExecutionMode.SRS)
        assert srs.mode == ExecutionMode.SRS
        assert srs.sampling_fraction == 0.3
        half = replace(config, sampling_fraction=0.5)
        assert half.sampling_fraction == 0.5
        assert half.mode == config.mode


class TestSkewedBehaviour:
    def test_srs_misses_rare_valuable_stratum(self):
        """The Fig. 10(c) mechanism: SRS error explodes, ApproxIoT's doesn't."""
        from repro.workloads.synthetic import PoissonSubstream

        gens = {
            "common": PoissonSubstream("common", 10.0),
            "rare": PoissonSubstream("rare", 1_000_000.0),
        }
        schedule = RateSchedule("skew", {"common": 1600.0, "rare": 4.0})
        config = PipelineConfig(sampling_fraction=0.1, seed=7)
        runner = StatisticalRunner(config, schedule, gens)
        run = runner.run(10)
        assert run.mean_srs_loss > 10 * run.mean_approxiot_loss
