"""Unit tests for the workload generators."""

import random

import pytest

from repro.core.items import StreamItem
from repro.errors import WorkloadError
from repro.workloads.pollution import (
    POLLUTANTS,
    PollutantSubstream,
    PollutionTraceSynthesizer,
    pollutant_generators,
)
from repro.workloads.rates import RateSchedule, paper_rate_settings
from repro.workloads.skew import SkewedMixture, paper_skewed_mixture
from repro.workloads.source import (
    Source,
    generate_columns,
    sources_from_schedule,
)
from repro.workloads.synthetic import (
    GaussianSubstream,
    PoissonSubstream,
    paper_gaussian_substreams,
    paper_poisson_substreams,
)
from repro.workloads.taxi import (
    BOROUGHS,
    BoroughSubstream,
    TaxiTraceSynthesizer,
)


class TestSynthetic:
    def test_paper_gaussian_parameters(self):
        subs = {g.name: g for g in paper_gaussian_substreams()}
        assert subs["A"].mu == 10.0 and subs["A"].sigma == 5.0
        assert subs["D"].mu == 100000.0 and subs["D"].sigma == 5000.0

    def test_paper_poisson_parameters(self):
        subs = {g.name: g for g in paper_poisson_substreams()}
        assert [subs[n].lam for n in "ABCD"] == [10.0, 100.0, 1000.0, 10000.0]

    def test_gaussian_sample_mean(self):
        gen = GaussianSubstream("X", 100.0, 5.0)
        items = gen.generate(5000, random.Random(1))
        mean = sum(i.value for i in items) / len(items)
        assert mean == pytest.approx(100.0, rel=0.02)
        assert all(i.substream == "X" for i in items)

    def test_poisson_small_lambda_mean(self):
        gen = PoissonSubstream("X", 10.0)
        items = gen.generate(5000, random.Random(2))
        mean = sum(i.value for i in items) / len(items)
        assert mean == pytest.approx(10.0, rel=0.05)

    def test_poisson_large_lambda_uses_normal_approx(self):
        gen = PoissonSubstream("X", 10_000_000.0)
        items = gen.generate(100, random.Random(3))
        mean = sum(i.value for i in items) / len(items)
        assert mean == pytest.approx(10_000_000.0, rel=0.01)
        assert all(v.value >= 0 for v in items)

    def test_emitted_at_propagates(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        items = gen.generate(3, random.Random(4), emitted_at=7.5)
        assert all(i.emitted_at == 7.5 for i in items)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            GaussianSubstream("X", 0.0, -1.0)
        with pytest.raises(WorkloadError):
            PoissonSubstream("X", 0.0)
        with pytest.raises(WorkloadError):
            GaussianSubstream("X", 0.0, 1.0).generate(-1, random.Random())


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

    def test_counts_for_interval(self):
        schedule = RateSchedule("s", {"a": 100.0, "b": 50.0})
        assert schedule.counts_for_interval(2.0) == {"a": 200, "b": 100}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RateSchedule("s", {})
        with pytest.raises(WorkloadError):
            RateSchedule("s", {"a": -1.0})
        schedule = RateSchedule("s", {"a": 1.0})
        with pytest.raises(WorkloadError):
            schedule.counts_for_interval(0.0)
        with pytest.raises(WorkloadError):
            schedule.scaled(0.0)


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

    def test_generate_shuffles_and_tags(self):
        mixture = paper_skewed_mixture()
        items = mixture.generate(1000, random.Random(5))
        assert len(items) == 1000
        assert {i.substream for i in items} == {"A", "B", "C", "D"}

    def test_validation(self):
        sub = PoissonSubstream("A", 1.0)
        with pytest.raises(WorkloadError):
            SkewedMixture([sub], [0.5])  # doesn't sum to 1
        with pytest.raises(WorkloadError):
            SkewedMixture([sub], [0.5, 0.5])  # length mismatch


class TestTaxi:
    def test_ride_schema(self):
        synth = TaxiTraceSynthesizer(seed=1)
        ride = synth.ride(100.0)
        assert ride.dropoff_datetime > ride.pickup_datetime
        assert ride.total_amount >= ride.fare_amount
        assert ride.borough in BOROUGHS
        assert ride.fare_amount == pytest.approx(
            2.50 + 2.50 * ride.trip_distance, abs=0.01
        )

    def test_generate_items_tags_boroughs(self):
        synth = TaxiTraceSynthesizer(seed=2)
        items = synth.generate_items(500)
        assert all(i.substream.startswith("taxi/") for i in items)
        manhattan = sum(
            1 for i in items if i.substream == "taxi/manhattan"
        )
        assert manhattan > 250  # dominant borough

    def test_rides_are_time_ordered(self):
        synth = TaxiTraceSynthesizer(seed=3)
        rides = synth.generate_rides(50, rate_per_second=10.0)
        pickups = [r.pickup_datetime for r in rides]
        assert pickups == sorted(pickups)

    def test_borough_generator_protocol(self):
        gen = BoroughSubstream("queens")
        items = gen.generate(100, random.Random(6), emitted_at=1.0)
        assert len(items) == 100
        assert all(i.substream == "taxi/queens" for i in items)
        assert all(i.value > 2.5 for i in items)  # flagfall floor

    def test_borough_generators_cover_all(self):
        gens = TaxiTraceSynthesizer.borough_generators()
        assert set(gens) == {f"taxi/{b}" for b in BOROUGHS}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TaxiTraceSynthesizer(medallions=0)
        with pytest.raises(WorkloadError):
            BoroughSubstream("atlantis")


class TestPollution:
    def test_readings_cover_all_pollutants(self):
        synth = PollutionTraceSynthesizer(seed=1, sensors_per_pollutant=3)
        readings = synth.readings_at(0.0)
        assert len(readings) == 3 * len(POLLUTANTS)
        assert {r.pollutant for r in readings} == set(POLLUTANTS)

    def test_values_stay_near_baseline(self):
        """The stability property the paper notes for this dataset."""
        gen = PollutantSubstream("pm")
        items = gen.generate(2000, random.Random(7))
        baseline = POLLUTANTS["pm"][0]
        mean = sum(i.value for i in items) / len(items)
        assert mean == pytest.approx(baseline, rel=0.2)
        values = [i.value for i in items]
        spread = (max(values) - min(values)) / baseline
        assert spread < 1.0  # low relative variability

    def test_pollution_less_variable_than_taxi(self):
        """Why Fig. 11(a)'s pollution curve sits below the taxi curve."""
        rng = random.Random(8)
        taxi_values = [
            i.value for i in BoroughSubstream("manhattan").generate(2000, rng)
        ]
        pollution_values = [
            i.value for i in PollutantSubstream("pm").generate(2000, rng)
        ]

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
            PollutionTraceSynthesizer(sensors_per_pollutant=0)
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

    def test_columnar_emission_spreads_timestamps(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, 10.0, rng=random.Random(10))
        batch = source.emit_interval_columns(5.0, 1.0)
        times = list(batch.timestamps)
        assert all(5.0 < t < 6.0 for t in times)
        assert times == sorted(times)

    def test_columnar_zero_rate_emits_empty_batch(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        source = Source("s", gen, 0.0)
        assert len(source.emit_interval_columns(0.0, 1.0)) == 0

    def test_generate_columns_fallback_for_plain_generators(self):
        """Generators without a native columnar path transpose their
        object batch at the seam."""

        class PlainGenerator:
            def generate(self, count, rng, emitted_at=0.0):
                return [
                    StreamItem("P", float(i), emitted_at) for i in range(count)
                ]

        batch = generate_columns(PlainGenerator(), 3, random.Random(0), 1.0)
        assert batch.to_items() == [
            StreamItem("P", 0.0, 1.0),
            StreamItem("P", 1.0, 1.0),
            StreamItem("P", 2.0, 1.0),
        ]

    def test_sources_from_schedule(self):
        schedule = RateSchedule("s", {"A": 10.0, "B": 20.0})
        gens = {"A": GaussianSubstream("A", 1.0, 0.0),
                "B": GaussianSubstream("B", 1.0, 0.0)}
        sources = sources_from_schedule(schedule, gens, seed=1)
        assert len(sources) == 2
        rates = sorted(s.rate_per_second for s in sources)
        assert rates == [10.0, 20.0]

    def test_missing_generator_rejected(self):
        schedule = RateSchedule("s", {"A": 10.0})
        with pytest.raises(WorkloadError):
            sources_from_schedule(schedule, {}, seed=1)

    def test_validation(self):
        gen = GaussianSubstream("X", 1.0, 0.0)
        with pytest.raises(WorkloadError):
            Source("s", gen, -1.0)
        source = Source("s", gen, 1.0)
        with pytest.raises(WorkloadError):
            source.emit_interval_columns(0.0, 0.0)


class TestGeneratorColumnParity:
    """Every generator's columnar path emits the object path's records."""

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
    def test_columns_match_objects(self, generator):
        expected = generator.generate(40, random.Random(21), 3.0)
        batch = generator.generate_columns(40, random.Random(21), 3.0)
        assert batch.to_items() == expected

    def test_pollution_columns_match_objects(self):
        """AR(1) state advances identically on either plane."""
        objects_gen = PollutantSubstream("pm")
        columns_gen = PollutantSubstream("pm")
        expected = objects_gen.generate(25, random.Random(5), 1.0)
        batch = columns_gen.generate_columns(25, random.Random(5), 1.0)
        assert batch.to_items() == expected

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError):
            GaussianSubstream("A", 1.0, 0.0).generate_columns(
                -1, random.Random(0)
            )


class TestColumnStaging:
    """No staging is shared between draws: each returns an owned column,
    so emitted batches never alias."""

    def test_successive_windows_do_not_alias(self):
        gen = GaussianSubstream("g", 100.0, 5.0)
        rng = random.Random(11)
        first = gen.generate_columns(50, rng, 0.0)
        snapshot = list(first.values)
        gen.generate_columns(50, rng, 1.0)
        assert list(first.values) == snapshot

    def test_reuse_preserves_cross_plane_parity(self):
        values = {}
        for plane in ("objects", "columnar"):
            gen = PollutantSubstream("pm")
            rng = random.Random(12)
            drawn = []
            for window in range(3):  # stateful AR(1) across windows
                if plane == "objects":
                    drawn.extend(
                        item.value
                        for item in gen.generate(20, rng, float(window))
                    )
                else:
                    drawn.extend(
                        float(v)
                        for v in gen.generate_columns(
                            20, rng, float(window)
                        ).values
                    )
            values[plane] = drawn
        assert values["objects"] == values["columnar"]


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
