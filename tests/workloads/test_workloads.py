"""Unit tests for the workload generators."""

import random

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import make_generator
from repro.errors import WorkloadError
from repro.workloads.pollution import (
    POLLUTANTS,
    PollutantSubstream,
    pollutant_generators,
)
from repro.workloads.rates import RateSchedule, paper_rate_settings
from repro.workloads.skew import SkewedMixture, paper_skewed_mixture
from repro.workloads.source import Source
from repro.workloads.synthetic import (
    GaussianSubstream,
    PoissonSubstream,
    paper_gaussian_substreams,
    paper_poisson_substreams,
)
from repro.workloads.taxi import BOROUGHS, BoroughSubstream, borough_generators


def draw(generator, count, rng, emitted_at=0.0):
    """``count`` records from ``generator``, seeded off a ``random.Random``."""
    return generator.draw_columns(count, make_generator(rng), emitted_at)


class TestSynthetic:
    def test_paper_gaussian_parameters(self):
        subs = {g.name: g for g in paper_gaussian_substreams()}
        assert subs["A"].mu == 10.0 and subs["A"].sigma == 5.0
        assert subs["D"].mu == 100000.0 and subs["D"].sigma == 5000.0

    def test_paper_poisson_parameters(self):
        subs = {g.name: g for g in paper_poisson_substreams()}
        assert [subs[n].lam for n in "ABCD"] == [10.0, 100.0, 1000.0, 10000.0]

    def test_gaussian_sample_mean(self):
        batch = draw(GaussianSubstream("X", 100.0, 5.0), 5000, random.Random(1))
        assert batch.values.mean() == pytest.approx(100.0, rel=0.02)
        assert batch.uniform_substream == "X"

    def test_poisson_small_lambda_mean(self):
        batch = draw(PoissonSubstream("X", 10.0), 5000, random.Random(2))
        assert batch.values.mean() == pytest.approx(10.0, rel=0.05)

    def test_poisson_large_lambda_mean(self):
        batch = draw(PoissonSubstream("X", 10_000_000.0), 100, random.Random(3))
        assert batch.values.mean() == pytest.approx(10_000_000.0, rel=0.01)
        assert (batch.values >= 0).all()

    def test_emitted_at_propagates(self):
        batch = draw(GaussianSubstream("X", 1.0, 0.0), 3, random.Random(4), 7.5)
        assert batch.timestamps == 7.5

    def test_validation(self):
        with pytest.raises(WorkloadError):
            GaussianSubstream("X", 0.0, -1.0)
        with pytest.raises(WorkloadError):
            PoissonSubstream("X", 0.0)
        with pytest.raises(WorkloadError):
            draw(GaussianSubstream("X", 0.0, 1.0), -1, random.Random(0))


class TestRates:
    def test_paper_settings(self):
        settings = {s.name: s for s in paper_rate_settings()}
        assert settings["Setting1"].rates == {
            "A": 50_000.0, "B": 25_000.0, "C": 12_500.0, "D": 625.0
        }
        assert settings["Setting2"].total_rate == 100_000.0
        assert settings["Setting3"].rates["A"] == 625.0

    def test_scaling_preserves_ratios(self):
        scaled = paper_rate_settings(scale=0.01)[0]
        assert scaled.rates["A"] == 500.0
        assert scaled.rates["A"] / scaled.rates["D"] == pytest.approx(80.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RateSchedule("s", {})
        with pytest.raises(WorkloadError):
            RateSchedule("s", {"a": -1.0})
        schedule = RateSchedule("s", {"a": 1.0})
        with pytest.raises(WorkloadError):
            schedule.scaled(0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rates_rejected(self, value):
        with pytest.raises(WorkloadError):
            RateSchedule("s", {"A": value})
        with pytest.raises(WorkloadError):
            RateSchedule("s", {"A": 1.0}).scaled(value)
        with pytest.raises(WorkloadError):
            Source("s", GaussianSubstream("X", 1.0, 0.0), value)


class TestSkew:
    def test_paper_mixture_proportions(self):
        mixture = paper_skewed_mixture()
        assert mixture.proportions == [0.80, 0.1989, 0.001, 0.0001]
        assert [s.lam for s in mixture.substreams] == [
            10.0, 100.0, 1000.0, 10_000_000.0
        ]

    def test_counts_sum_to_total(self):
        mixture = paper_skewed_mixture()
        counts = mixture.counts_for(100_000)
        assert sum(counts.values()) == 100_000
        assert counts["A"] == pytest.approx(80_000, abs=2)

    def test_rare_stratum_always_present(self):
        mixture = paper_skewed_mixture()
        counts = mixture.counts_for(1000)
        assert counts["D"] >= 1  # 0.01% of 1000 would round to 0

    def test_draw_shuffles_and_tags(self):
        batch = draw(paper_skewed_mixture(), 1000, random.Random(5))
        assert len(batch) == 1000
        assert set(batch.substream_ids()) == {"A", "B", "C", "D"}

    def test_validation(self):
        sub = PoissonSubstream("A", 1.0)
        with pytest.raises(WorkloadError):
            SkewedMixture([sub], [0.5])  # doesn't sum to 1
        with pytest.raises(WorkloadError):
            SkewedMixture([sub], [0.5, 0.5])  # length mismatch


class TestTaxi:
    def test_borough_generator_protocol(self):
        batch = draw(BoroughSubstream("queens"), 100, random.Random(6), 1.0)
        assert len(batch) == 100
        assert batch.uniform_substream == "taxi/queens"
        assert (batch.values > 2.5).all()  # flagfall floor

    def test_borough_generators_cover_all(self):
        gens = borough_generators()
        assert set(gens) == {f"taxi/{b}" for b in BOROUGHS}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BoroughSubstream("atlantis")


class TestPollution:
    def test_values_stay_near_baseline(self):
        """The stability property the paper notes for this dataset."""
        values = draw(PollutantSubstream("pm"), 2000, random.Random(7)).values
        baseline = POLLUTANTS["pm"][0]
        assert values.mean() == pytest.approx(baseline, rel=0.2)
        spread = (max(values) - min(values)) / baseline
        assert spread < 1.0  # low relative variability

    def test_pollution_less_variable_than_taxi(self):
        """Why Fig. 11(a)'s pollution curve sits below the taxi curve."""
        rng = random.Random(8)
        taxi_values = draw(BoroughSubstream("manhattan"), 2000, rng).values
        pollution_values = draw(PollutantSubstream("pm"), 2000, rng).values

        def cv(values):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            return var ** 0.5 / mean

        assert cv(pollution_values) < cv(taxi_values) / 3

    def test_generators_cover_all(self):
        gens = pollutant_generators()
        assert set(gens) == {f"pollution/{p}" for p in POLLUTANTS}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            PollutantSubstream("plutonium")


class TestSource:
    def test_emit_interval_count_matches_rate(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, rate_per_second=100.0, rng=random.Random(9))
        batch = source.emit_interval_columns(0.0, 2.0)
        assert len(batch) == 200
        assert source.items_emitted == 200

    def test_fractional_rate_carries_remainder(self):
        """A 0.4 items/s source must emit ~0.4 items per second long
        run, not zero forever (the old per-interval rounding bug)."""
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, rate_per_second=0.4, rng=random.Random(3))
        counts = [
            len(source.emit_interval_columns(float(t), 1.0)) for t in range(10)
        ]
        assert sum(counts) == 4
        assert counts[0] == 0  # nothing due yet after 0.4 items

    def test_fractional_rate_long_run_matches_schedule(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, rate_per_second=7.3, rng=random.Random(4))
        for t in range(100):
            source.emit_interval_columns(float(t), 1.0)
        assert source.items_emitted == pytest.approx(730, abs=1)

    def test_low_rate_statistical_run_completes(self):
        """The motivating case end-to-end: a sub-item-per-window rate
        runs through the statistical engine, skipping the windows the
        schedule owes no items."""
        from repro.system.config import PipelineConfig
        from repro.system.statistical import StatisticalRunner

        run = StatisticalRunner(
            PipelineConfig(sampling_fraction=0.5, seed=1),
            RateSchedule("low", {"A": 4.0}),  # 0.5 items/s per source
            {"A": GaussianSubstream("A", 10.0, 1.0)},
        ).run(6)
        assert 0 < len(run.windows) <= 6
        assert run.mean_approxiot_loss >= 0.0

    def test_first_interval_still_rounds_to_nearest(self):
        """The carry starts centered, so a 0.6 items/s source emits in
        its very first window (no regression vs the old rounding) while
        the long run still tracks the schedule."""
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, rate_per_second=0.6, rng=random.Random(8))
        counts = [
            len(source.emit_interval_columns(float(t), 1.0)) for t in range(10)
        ]
        assert counts[0] == 1
        assert sum(counts) == pytest.approx(6, abs=1)

    def test_columnar_zero_rate_emits_empty_batch(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, 0.0)
        assert len(source.emit_interval_columns(0.0, 1.0)) == 0

    def test_a_random_random_generator_gets_the_source_rng(self):
        """A generator with ``generate_columns`` but no ``draw_columns``
        is fed the source's ``random.Random`` itself."""

        class ScalarGenerator:
            def generate_columns(self, count, rng, emitted_at=0.0):
                values = [rng.random() for _ in range(count)]
                return ColumnarBatch.single("P", values, emitted_at)

        source = Source("s", ScalarGenerator(), 3.0, rng=random.Random(0))
        batch = source.emit_interval_columns(1.0, 1.0)
        rng = random.Random(0)
        assert batch.values.tolist() == [rng.random() for _ in range(3)]
        assert batch.timestamps == 1.0

    def test_a_generator_without_a_column_hook_is_rejected(self):
        """Refused at construction, by name — not at the first interval."""

        class RowGenerator:
            def generate(self, count, rng, emitted_at=0.0):
                return [rng.random() for _ in range(count)]

        with pytest.raises(WorkloadError, match="RowGenerator"):
            Source("s", RowGenerator(), 1.0)

    def test_intervals_draw_on_from_one_generator(self):
        """The source seeds its Generator once, not per interval."""
        source = Source("s", GaussianSubstream("X", 10.0, 2.0), 3.0,
                        rng=random.Random(6))
        drawn = [source.emit_interval_columns(float(t), 1.0).values.tolist()
                 for t in range(2)]
        reference = make_generator(random.Random(6)).normal(10.0, 2.0, 6)
        assert drawn[0] + drawn[1] == reference.tolist()

    def test_an_empty_interval_draws_no_entropy(self):
        source = Source("s", GaussianSubstream("X", 10.0, 2.0), 0.5,
                        rng=random.Random(7))
        assert len(source.emit_interval_columns(0.0, 0.8)) == 0
        [value] = source.emit_interval_columns(0.8, 1.0).values.tolist()
        assert value == make_generator(random.Random(7)).normal(10.0, 2.0)

    def test_a_draw_columns_hook_wins_over_generate_columns(self):
        """A generator with both hooks draws from the source's Generator."""

        class BothHooks:
            def draw_columns(self, count, gen, emitted_at=0.0):
                return ColumnarBatch.single("G", gen.random(count), emitted_at)

            def generate_columns(self, count, rng, emitted_at=0.0):
                raise AssertionError("the draw_columns hook was skipped")

        source = Source("s", BothHooks(), 4.0, rng=random.Random(2))
        batch = source.emit_interval_columns(0.0, 1.0)
        expected = make_generator(random.Random(2)).random(4)
        assert batch.values.tolist() == expected.tolist()

    def test_validation(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        with pytest.raises(WorkloadError):
            Source("s", gen, -1.0)
        source = Source("s", gen, 1.0)
        with pytest.raises(WorkloadError):
            source.emit_interval_columns(0.0, 0.0)


class TestGeneratorColumnParity:
    """A generator's columns are the numpy draws its distribution names,
    consumed in order from the caller's Generator."""

    @pytest.mark.parametrize(
        "generator,reference",
        [
            (GaussianSubstream("A", 10.0, 5.0),
             lambda gen: gen.normal(10.0, 5.0, 40)),
            (PoissonSubstream("B", 100.0),
             lambda gen: gen.poisson(100.0, 40).astype(float)),
        ],
        ids=["gaussian", "poisson"],
    )
    def test_columns_match_the_direct_draw(self, generator, reference):
        batch = draw(generator, 40, random.Random(21), 3.0)
        expected = reference(make_generator(random.Random(21)))
        assert batch.values.tolist() == expected.tolist()
        assert batch.timestamps == 3.0
        assert batch.uniform_substream == generator.name

    @pytest.mark.parametrize(
        "generator",
        [
            GaussianSubstream("A", 10.0, 5.0),
            PoissonSubstream("B", 100.0),
            BoroughSubstream("brooklyn"),
            paper_skewed_mixture(),
        ],
        ids=["gaussian", "poisson", "taxi", "skewed-mixture"],
    )
    def test_a_seed_fixes_the_columns(self, generator):
        first = draw(generator, 40, random.Random(21), 3.0)
        again = draw(generator, 40, random.Random(21), 3.0)
        other = draw(generator, 40, random.Random(22), 3.0)
        assert first.values.tolist() == again.values.tolist()
        assert first.substream_ids() == again.substream_ids()
        assert first.values.tolist() != other.values.tolist()

    def test_skewed_mixture_is_a_permuted_stack_of_its_strata(self):
        mixture = paper_skewed_mixture()
        batch = draw(mixture, 1000, random.Random(23))
        gen = make_generator(random.Random(23))
        counts = mixture.counts_for(1000)
        stacked = ColumnarBatch.concat([
            sub.draw_columns(counts[sub.name], gen)
            for sub in mixture.substreams
        ])
        expected = stacked.select(gen.permutation(len(stacked)))
        assert batch.values.tolist() == expected.values.tolist()
        assert batch.substream_ids() == expected.substream_ids()

    def test_pollution_columns_follow_the_ar1_recurrence(self):
        baseline, scale = POLLUTANTS["pm"]
        batch = draw(PollutantSubstream("pm"), 25, random.Random(5), 1.0)
        level, expected = baseline, []
        innovations = make_generator(random.Random(5)).normal(0.0, scale, 25)
        for innovation in innovations.tolist():
            level = max(0.0, baseline + 0.95 * (level - baseline) + innovation)
            expected.append(round(level, 2))
        assert batch.values.tolist() == expected

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError):
            GaussianSubstream("A", 1.0, 0.0).draw_columns(
                -1, make_generator(random.Random(0))
            )


class TestColumnStaging:
    """No staging is shared between draws: each returns an owned column,
    so emitted batches never alias."""

    def test_successive_windows_do_not_alias(self):
        gen = GaussianSubstream("g", 100.0, 5.0)
        rng = make_generator(random.Random(11))
        first = gen.draw_columns(50, rng, 0.0)
        snapshot = list(first.values)
        gen.draw_columns(50, rng, 1.0)
        assert list(first.values) == snapshot

    def test_ar1_state_carries_across_draws(self):
        """Three windows of 20 continue one AR(1) path: the level left
        by a draw seeds the next, on the same Generator."""
        gen = PollutantSubstream("pm")
        rng = make_generator(random.Random(12))
        windows = [gen.draw_columns(20, rng, float(w)).values.tolist()
                   for w in range(3)]
        baseline, scale = POLLUTANTS["pm"]
        reference = make_generator(random.Random(12))
        level, expected = baseline, []
        for _ in range(3):
            for innovation in reference.normal(0.0, scale, 20).tolist():
                level = max(0.0,
                            baseline + 0.95 * (level - baseline) + innovation)
                expected.append(round(level, 2))
        assert [v for window in windows for v in window] == expected


class TestScheduleSplit:
    def test_split_shares_sum_to_the_original(self):
        schedule = RateSchedule("s", {"A": 10.0, "B": 4.0})
        shards = schedule.split(4)
        assert len(shards) == 4
        for substream, rate in schedule.rates.items():
            assert sum(s.rates[substream] for s in shards) == pytest.approx(
                rate
            )

    def test_split_one_returns_the_schedule_itself(self):
        schedule = RateSchedule("s", {"A": 10.0})
        assert schedule.split(1) == [schedule]

    def test_split_rejects_nonpositive_counts(self):
        with pytest.raises(WorkloadError):
            RateSchedule("s", {"A": 1.0}).split(0)
