"""The entropy contract: deterministic per seed.

* whole-column draws from per-source generators, pinned here against
  the values the release before the pure-Python backend's deletion
  emitted; seeded runs repeat byte for byte, process shards equal their
  inline twin, and a generator that only knows ``random.Random`` still
  runs.
* the perf gates are *counters*: a window makes O(sources) scalar rng
  calls, never O(items), and a whole run builds O(sources)
  ``numpy.random.Generator`` objects, never O(windows).
* the reservoir draws all come from the pipeline's one Generator
  through the fraction-aware ``batch_sample_indices`` kernel, whose two
  branches are held to Algorithm R's inclusion distribution
  (:class:`~repro.core.reservoir.ReservoirSampler`).
"""

import hashlib
import random
import struct

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import WeightedBatch
from repro.core.reservoir import ReservoirSampler
from repro.core.srs import coin_flips
from repro.core.whs import whsamp_batches
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.sharding import ShardedEngineRunner
from repro.engine.transport import InProcessTransport
from repro.system.config import PipelineConfig
from repro.system.deployment import DeploymentSimulator
from repro.workloads.pollution import PollutantSubstream
from repro.workloads.rates import RateSchedule
from repro.workloads.skew import paper_skewed_mixture
from repro.workloads.synthetic import (
    GaussianSubstream,
    PoissonSubstream,
    paper_gaussian_substreams,
)
from repro.workloads.taxi import BoroughSubstream

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "golden", {"A": 300.0, "B": 300.0, "C": 300.0, "D": 300.0}
)

def digest(floats) -> str:
    floats = [float(value) for value in floats]
    packed = struct.pack(f"<{len(floats)}d", *floats)
    return hashlib.sha256(packed).hexdigest()[:16]


def engine_for(seed=42, fraction=0.1, schedule=SCHEDULE, generators=GENS):
    config = PipelineConfig(sampling_fraction=fraction, seed=seed)
    pipeline = build_pipeline(config, schedule, generators)
    return pipeline, EngineRunner(pipeline, InProcessTransport())


def outcome_tuple(window):
    return (
        window.window_index,
        window.items_emitted,
        window.items_sampled,
        window.exact_sum,
        window.srs_sum,
        window.approx_sum.value,
        window.approx_sum.error,
    )


# ----------------------------------------------------------------------
# (a) seeded outputs: pinned from the release before the python backend
#     was deleted (its numpy path, unchanged since)
# ----------------------------------------------------------------------
#: First emitted window, seed 42: per-source sha256 of the value column.
GOLDEN_VALUE_DIGESTS = {
    "source-0": "77b8be47913e0e15",
    "source-1": "4448276b0951b104",
    "source-2": "93524bc8fea4d33a",
    "source-3": "44d59b980eda606c",
    "source-4": "9cb7448977cd1757",
    "source-5": "0eba9836fa70807e",
    "source-6": "3c2c2aac7c3d158a",
    "source-7": "835134c917dd1692",
}
GOLDEN_TIMESTAMP_DIGEST = "5365dcd2bf60ef3d"
GOLDEN_SRS_FIRST_WINDOW = 29419894.842481434
#: The window after it through ``run_window``: exact, approx, srs, at root.
GOLDEN_SECOND_WINDOW = (
    33305358.093237594, 33121322.59403029, 28587044.034845073, 120,
)
#: 200 values per generator from ``make_generator(random.Random(42))``.
GOLDEN_GENERATOR_DIGESTS = {
    "gaussian": (lambda: GaussianSubstream("A", 10.0, 5.0), "82b68635cff3a03e"),
    "poisson": (lambda: PoissonSubstream("B", 100.0), "6378d9e59128495e"),
    "poisson-large": (lambda: PoissonSubstream("D", 1e7), "9fa1a267cb3609fb"),
    "taxi": (lambda: BoroughSubstream("brooklyn"), "1cf8bb4d43f44bf7"),
    "pollution": (lambda: PollutantSubstream("pm"), "1c60b6ab91e190ac"),
    "skewed-mixture": (paper_skewed_mixture, "1ac6b8a8461348d5"),
}


class TestSeededGolden:
    def test_first_window_values_and_srs_are_unchanged(self):
        pipeline, runner = engine_for()
        emitted = pipeline.emit_window(0.0)
        for name, payload in emitted.items():
            assert digest(payload.values) == GOLDEN_VALUE_DIGESTS[name]
            # Sources emit one time per batch; the deployment emitter's
            # spread of it is the column the digest was pinned on.
            assert payload.timestamps == 0.0
            assert isinstance(payload.timestamps, float)
            stamped = payload.with_timestamps_from(
                0.0, payload.spread_offsets(1.0)
            )
            assert digest(stamped.timestamps) == GOLDEN_TIMESTAMP_DIGEST
        assert runner.run_srs(emitted) == GOLDEN_SRS_FIRST_WINDOW

    def test_second_window_outcome_is_unchanged(self):
        pipeline, runner = engine_for()
        runner.run_srs(pipeline.emit_window(0.0))
        outcome = runner.run_window()
        exact, approx, srs, at_root = GOLDEN_SECOND_WINDOW
        assert outcome.items_sampled == at_root
        assert outcome.exact_sum == exact
        assert outcome.approx_sum.value == approx
        assert outcome.srs_sum == srs

    @pytest.mark.parametrize("label", sorted(GOLDEN_GENERATOR_DIGESTS))
    def test_generator_draws_are_unchanged(self, label):
        factory, expected = GOLDEN_GENERATOR_DIGESTS[label]
        columns = factory().draw_columns(
            200, make_generator(random.Random(42)), 3.0
        )
        assert digest(columns.values) == expected

    def test_coin_flip_mask_is_unchanged(self):
        mask = coin_flips(make_generator(random.Random(42)), 0.1, 1000)
        assert hashlib.sha256(bytes(mask)).hexdigest()[:16] == "3f93341fd08acd7e"
        assert int(mask.sum()) == 110


#: Uneven strata, so L1 nodes split their budget unevenly (fair fill)
#: and fraction 0.8 takes the kernel's complement branch.
UNEVEN = RateSchedule(
    "bits", {"A": 3000.0, "B": 4500.0, "C": 2000.0, "D": 3500.0}
)


def approx_bits(approx):
    return (
        approx.value.hex(), approx.error.hex(), approx.variance.hex(),
        approx.sampled_items,
    )


def theta_bits(theta):
    """Per root batch: sub-stream, ``W_out``, size and value-sum bits."""
    return [
        (b.substream, b.weight.hex(), len(b), float(b.items.values.sum()).hex())
        for b in theta.batches
    ]


#: Root Theta rows shared by both fraction-0.1 windows, values aside.
_F01_ROOT = [
    ("A", "0x1.00af3addc680bp+3", 374), ("B", "0x1.7efa8d9df51b4p+3", 376),
    ("C", "0x1.d3273daa0b363p+2", 274), ("D", "0x1.95cc0ed7303b6p+3", 276),
]
_F08_ROOT = [
    ("A", "0x1.0000000000000p+0", 3000), ("B", "0x1.8000000000000p+0", 3000),
    ("C", "0x1.0000000000000p+0", 2000), ("D", "0x1.7555555555555p+0", 2400),
]


def _rows(shape, value_sums):
    return [(*row, total) for row, total in zip(shape, value_sums)]


#: fraction → per window (approx bits, root Theta bits); seed 42, UNEVEN.
#: Pinned on the per-window path before its bookkeeping was slimmed:
#: the hot path may get cheaper, never move a bit.
GOLDEN_WINDOW_BITS = {
    0.1: [
        (
            ("0x1.64ed578bf8796p+28", "0x1.f26c4203c46e6p+20",
             "0x1.e534af4f36389p+39", 1300),
            _rows(_F01_ROOT, ["0x1.d48fb82beae31p+11", "0x1.6fbb9c68dc744p+18",
                              "0x1.4edfba1532f8ep+21", "0x1.a4c976c276a44p+24"]),
        ),
        (
            ("0x1.64f1a6c480482p+28", "0x1.f0d1b38d05535p+20",
             "0x1.e216a1c48f6a0p+39", 1300),
            _rows(_F01_ROOT, ["0x1.d4dfbe82c279fp+11", "0x1.6d27ba0409422p+18",
                              "0x1.4e71aefe381fcp+21", "0x1.a4e08b263574fp+24"]),
        ),
    ],
    0.8: [
        (
            ("0x1.64e40fea4c6c2p+28", "0x1.85ef073de0facp+18",
             "0x1.28f8259849bc4p+35", 10400),
            _rows(_F08_ROOT, ["0x1.d29c94a53a1d2p+14", "0x1.6e6dc42efc27fp+21",
                              "0x1.3090eb76e2a7ap+24", "0x1.c96aa4bc56040p+27"]),
        ),
        (
            ("0x1.65782bda21a22p+28", "0x1.8718b54969596p+18",
             "0x1.2abe3e145ef9dp+35", 10400),
            _rows(_F08_ROOT, ["0x1.d70baee3e6232p+14", "0x1.6dfbcd74870b4p+21",
                              "0x1.30993fdc1c8a4p+24", "0x1.ca36c983942b2p+27"]),
        ),
    ],
}

#: The first merged window of a 2-shard inline run (fraction 0.2, seed
#: 13, UNEVEN): approx bits, then the merged Theta, shard 0's rows first.
_SHARD_ROOT = [
    ("A", "0x1.00af3addc680bp+2", 374), ("B", "0x1.7efa8d9df51b4p+2", 376),
    ("C", "0x1.d3273daa0b363p+1", 274), ("D", "0x1.95cc0ed7303b6p+2", 276),
]
GOLDEN_SHARD_MERGE_BITS = (
    ("0x1.64bfb37c67b01p+28", "0x1.511b4a8cb1da1p+20",
     "0x1.bbe8dd2f3ba35p+38", 2600),
    _rows(_SHARD_ROOT + _SHARD_ROOT, [
        "0x1.d5862346f4574p+11", "0x1.6d794aacc0a42p+18",
        "0x1.4caa36526af7bp+21", "0x1.a43f4f811436ap+24",
        "0x1.d693b8e83ce39p+11", "0x1.6f14827319c3ap+18",
        "0x1.4efaacea6c722p+21", "0x1.a512210566236p+24",
    ]),
)


class TestWindowBitsGolden:
    """Every bit of a seeded window's estimate and root Theta is pinned."""

    @pytest.mark.parametrize("fraction", sorted(GOLDEN_WINDOW_BITS))
    def test_paper_tree_windows(self, fraction):
        _pipeline, runner = engine_for(fraction=fraction, schedule=UNEVEN)
        for approx, root in GOLDEN_WINDOW_BITS[fraction]:
            outcome, theta = runner.run_window_with_theta()
            assert approx_bits(outcome.approx_sum) == approx
            assert theta_bits(theta) == root

    def test_two_shard_inline_merge(self, monkeypatch):
        from repro.engine import sharding

        merged = []
        real = sharding._estimate_window

        def spy(theta, confidence, scenario_run):
            merged.append(theta)
            return real(theta, confidence, scenario_run)

        monkeypatch.setattr(sharding, "_estimate_window", spy)
        config = PipelineConfig(sampling_fraction=0.2, seed=13, workers=2)
        outcome = ShardedEngineRunner(
            config, UNEVEN, GENS, inline=True
        ).run_window()
        approx, root = GOLDEN_SHARD_MERGE_BITS
        assert approx_bits(outcome.approx_sum) == approx
        assert theta_bits(merged[0]) == root


# ----------------------------------------------------------------------
# (b) bit-reproducible per seed, everywhere
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_repeats_byte_for_byte(self):
        runs = []
        for _ in range(2):
            pipeline, runner = engine_for(seed=7)
            emitted = pipeline.emit_window(0.0)
            columns = {
                name: (
                    digest(payload.values),
                    digest(payload.timestamp_column()),
                )
                for name, payload in emitted.items()
            }
            srs = runner.run_srs(emitted)
            outcomes = [outcome_tuple(w) for w in runner.run(3).windows]
            runs.append((columns, srs, outcomes))
        assert runs[0] == runs[1]

    def test_srs_masks_repeat(self):
        masks = [
            coin_flips(make_generator(random.Random(5)), 0.3, 500).tobytes()
            for _ in range(2)
        ]
        assert masks[0] == masks[1]

    @pytest.mark.usefixtures("shard_path")
    def test_two_processes_equal_their_inline_twin(self):
        config = PipelineConfig(
            sampling_fraction=0.2, seed=13, workers=2,
        )
        inline = ShardedEngineRunner(
            config, SCHEDULE, GENS, inline=True
        ).run(3)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
            processes = runner.run(3)
        assert [outcome_tuple(w) for w in inline.windows] == [
            outcome_tuple(w) for w in processes.windows
        ]


# ----------------------------------------------------------------------
# (c) a random.Random-only generator still runs
# ----------------------------------------------------------------------
class ScalarOnlyGenerator:
    """Has ``generate_columns`` (fed a ``random.Random``), no ``draw_columns``."""

    def __init__(self, name):
        self.name = name
        self.rng_types = set()

    def generate_columns(self, count, rng, emitted_at=0.0):
        self.rng_types.add(type(rng))
        values = [rng.gauss(10.0, 1.0) for _ in range(count)]
        return ColumnarBatch.single(self.name, values, emitted_at)


class TestScalarOnlyGenerator:
    def test_statistical_run(self):
        generators = {name: ScalarOnlyGenerator(name) for name in "ABCD"}
        pipeline, runner = engine_for(fraction=0.2, generators=generators)
        outcome = runner.run(2)
        assert all(w.items_emitted == 1200 for w in outcome.windows)
        assert outcome.mean_approxiot_loss < 5.0
        # The run draws from the pipeline's copies of the generators.
        for source in pipeline.sources.values():
            assert source._draw.__self__.rng_types == {random.Random}

    def test_deployment_run(self):
        generators = {name: ScalarOnlyGenerator(name) for name in "ABCD"}
        config = PipelineConfig(
            sampling_fraction=0.2, seed=3, mode="srs",
        )
        report = DeploymentSimulator(
            config, SCHEDULE, generators, n_windows=2
        ).run()
        assert report.items_emitted == 2400
        assert 0 < report.items_at_root < report.items_emitted


# ----------------------------------------------------------------------
# (d) deterministic perf gate: counters, never clocks
# ----------------------------------------------------------------------
def test_window_makes_o_sources_scalar_rng_calls(monkeypatch):
    """One 100 k-item window costs O(sources) ``random.Random`` calls.

    ``gauss`` and ``random`` are the per-record calls a scalar value
    draw or coin flip would make; neither may scale with the item
    count.
    """
    calls = {"gauss": 0, "random": 0}

    def count_calls(name):
        original = getattr(random.Random, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, name, counted)

    count_calls("gauss")
    count_calls("random")
    schedule = RateSchedule("fig6", {name: 25_000.0 for name in "ABCD"})
    pipeline, runner = engine_for(schedule=schedule)
    outcome, _theta = runner.run_window_with_theta()
    assert outcome.items_emitted == 100_000
    sources = len(pipeline.tree.sources)
    assert calls["gauss"] + calls["random"] <= 4 * sources, calls
    # The counter does see a scalar path: same window, random.Random-only
    # generators.
    scalar_generators = {name: ScalarOnlyGenerator(name) for name in "ABCD"}
    _pipeline, scalar = engine_for(
        schedule=schedule, generators=scalar_generators
    )
    scalar.run_window_with_theta()
    assert calls["gauss"] >= 100_000


def test_run_builds_o_sources_generators(monkeypatch):
    """A run seeds one Generator per source plus the pipeline's one.

    No node, window, source batch or SRS delivery builds another, so the
    count does not move with the number of windows.
    """
    import numpy

    built = []
    original = numpy.random.default_rng

    def counted(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(numpy.random, "default_rng", counted)

    def engine_run(windows):
        _pipeline, runner = engine_for()
        runner.run(windows)

    def srs_deployment_run(windows):
        config = PipelineConfig(
            sampling_fraction=0.1, seed=42, mode="srs",
        )
        DeploymentSimulator(config, SCHEDULE, GENS, n_windows=windows).run()

    sources = len(PipelineConfig().tree.sources)
    for run in (engine_run, srs_deployment_run):
        per_windows = {}
        for windows in (1, 4):
            built.clear()
            run(windows)
            per_windows[windows] = len(built)
        assert per_windows[4] == per_windows[1] <= sources + 1, per_windows


def test_static_window_hot_path_counters(monkeypatch):
    """A static paper-tree window pays for its numpy work and little else.

    Counted, never timed: its hops go straight to the transport (no
    scenario-aware ``_deliver``), each overflowing ``(sub-stream, W_in)``
    group is gathered with exactly one ``select``, and the root
    estimate concatenates each sub-stream's value columns at most once.
    """
    import numpy

    from repro.core.error_bounds import estimate_sum_with_error
    from repro.core.stratified import allocate_fair_fill

    calls = {"_deliver": 0, "select": 0, "concatenate": 0}

    def count_calls(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    overflowing = []

    def recording_policy(sample_size, counts):
        allocation = allocate_fair_fill(sample_size, counts)
        overflowing.extend(k for k in counts if counts[k] > allocation[k])
        return allocation

    pipeline, runner = engine_for(schedule=UNEVEN)
    pipeline.allocation_override = recording_policy
    count_calls(EngineRunner, "_deliver")
    count_calls(ColumnarBatch, "select")
    theta = runner.sample_theta(pipeline.emit_window(0.0))
    assert calls["_deliver"] == 0
    assert calls["select"] == len(overflowing) == 8  # the L1 groups
    # Two windows' root pairs in one store: two batches per sub-stream.
    theta.extend(runner.sample_theta(pipeline.emit_window(1.0)).batches)
    strata = {batch.substream for batch in theta.batches}
    assert len(theta) == 2 * len(strata)
    count_calls(numpy, "concatenate")
    estimate_sum_with_error(theta)
    assert 0 < calls["concatenate"] <= len(strata)

# ----------------------------------------------------------------------
# (e) the one-shot kernel: Algorithm R's subset on either side of n / 2
# ----------------------------------------------------------------------
class TestBatchSampleIndices:
    POPULATION = 1000

    @pytest.mark.parametrize(
        "capacity", [1, 100, 499, 500, 501, 999, 1000, 1500]
    )
    def test_sorted_unique_intp_of_exact_size(self, capacity):
        import numpy

        n = self.POPULATION
        indices = batch_sample_indices(
            n, capacity, make_generator(random.Random(capacity))
        )
        assert isinstance(indices, numpy.ndarray)
        assert indices.dtype == numpy.intp
        assert len(indices) == min(capacity, n)
        assert (numpy.diff(indices) > 0).all()  # sorted and unique
        assert indices[0] >= 0 and indices[-1] < n

    @pytest.mark.parametrize("capacity", [10, 30])  # choice / complement
    def test_every_index_is_kept_with_probability_k_over_n(self, capacity):
        import numpy

        n, draws = 40, 4000
        gen = make_generator(random.Random(11))
        kept = numpy.zeros(n)
        for _ in range(draws):
            kept[batch_sample_indices(n, capacity, gen)] += 1
        p = capacity / n
        sigma = (draws * p * (1 - p)) ** 0.5
        assert numpy.abs(kept - draws * p).max() <= 5 * sigma

    @pytest.mark.parametrize(
        "fraction", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    )
    def test_eq8_count_recovery_through_three_layers(self, fraction):
        _pipeline, runner = engine_for(fraction=fraction)
        for _ in range(2):
            outcome, theta = runner.run_window_with_theta()
            recovered = sum(
                estimate.estimated_count
                for estimate in theta.per_substream().values()
            )
            assert recovered == pytest.approx(outcome.items_emitted, rel=1e-9)
            assert outcome.items_sampled < outcome.items_emitted

    def test_pass_through_node_leaves_the_shared_stream_untouched(self):
        gen = make_generator(random.Random(3))
        before = gen.bit_generator.state
        batches = [
            WeightedBatch(name, 2.0, ColumnarBatch.single(name, range(50)))
            for name in "ABCD"
        ]
        result = whsamp_batches(batches, 200, gen=gen)
        assert sum(len(b) for b in result) == 200
        assert gen.bit_generator.state == before
        whsamp_batches(batches, 199, gen=gen)
        assert gen.bit_generator.state != before

    @pytest.mark.parametrize("capacity", [10, 30])  # choice / complement
    def test_inclusion_frequencies_match_reservoir_sampler(self, capacity):
        """Per index, the kernel and Algorithm R over ``range(n)`` keep it
        at the same rate: both within a binomial band of ``k / n`` and
        within the two-sample band of each other."""
        import numpy

        n, draws = 40, 4000
        gen = make_generator(random.Random(23))
        rng = random.Random(23)
        kernel = numpy.zeros(n)
        reference = numpy.zeros(n)
        for _ in range(draws):
            kernel[batch_sample_indices(n, capacity, gen)] += 1
            sampler = ReservoirSampler(capacity, rng=rng)
            sampler.extend(range(n))
            reference[sampler.sample()] += 1
        p = capacity / n
        sigma = (draws * p * (1 - p)) ** 0.5
        assert numpy.abs(kernel - draws * p).max() <= 5 * sigma
        assert numpy.abs(reference - draws * p).max() <= 5 * sigma
        assert numpy.abs(kernel - reference).max() <= 5 * sigma * 2 ** 0.5

    @pytest.mark.parametrize(
        "population, capacity", [(40, 10), (40, 30), (7, 9)]
    )
    def test_sample_sizes_and_eq8_match_reservoir_sampler(
        self, population, capacity
    ):
        """Both keep exactly ``min(k, n)`` records, so Eq. 8's
        ``W_out * c~`` recovers ``W_in * n`` (to float rounding of the
        weight) through either."""
        from repro.core.weights import output_weight

        kernel = batch_sample_indices(
            population, capacity, make_generator(random.Random(5))
        )
        sampler = ReservoirSampler(capacity, rng=random.Random(5))
        sampler.extend(range(population))
        assert len(kernel) == len(sampler.sample()) == min(population, capacity)
        w_out = output_weight(2.5, population, capacity)
        assert w_out * len(kernel) == pytest.approx(2.5 * population, rel=1e-12)
