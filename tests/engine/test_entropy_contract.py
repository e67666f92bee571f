"""The entropy contract: deterministic per ``(seed, backend)``.

* ``python`` — one ``random.Random`` call sequence per record, pinned
  here against the values the release *before* the vectorised entropy
  path emitted. This half needs no numpy and never skips: it is the
  dependency-free install's proof that its seeded outputs did not move.
* ``numpy`` — whole-column draws from per-source generators; seeded
  runs repeat byte for byte, process shards equal their inline twin,
  and a generator that only knows ``random.Random`` still runs.
* the perf gates are *counters*: a numpy-backend window makes
  O(sources) scalar rng calls, never O(items), and a whole run builds
  O(sources) ``numpy.random.Generator`` objects, never O(windows).
* the numpy draws all come from the pipeline's one Generator through
  the fraction-aware ``batch_sample_indices`` kernel, whose two
  branches are held to the same uniform-subset contract.
"""

import hashlib
import random
import struct

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import (
    batch_sample_indices,
    make_generator,
    numpy_available,
)
from repro.core.items import StreamItem, WeightedBatch
from repro.core.srs import CoinFlipSampler
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

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)


def digest(floats) -> str:
    floats = [float(value) for value in floats]
    packed = struct.pack(f"<{len(floats)}d", *floats)
    return hashlib.sha256(packed).hexdigest()[:16]


def engine_for(backend, seed=42, fraction=0.1, schedule=SCHEDULE,
               generators=GENS):
    config = PipelineConfig(
        sampling_fraction=fraction, seed=seed, backend=backend,
    )
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
# (a) python backend: pinned from the parent commit
# ----------------------------------------------------------------------
#: First emitted window, seed 42: per-source sha256 of the value column.
GOLDEN_VALUE_DIGESTS = {
    "source-0": "f23d21731eab9f32",
    "source-1": "7ba19381a1d48abf",
    "source-2": "4f22bd25d9c763e9",
    "source-3": "90fcc281b1541a2a",
    "source-4": "d87a423da43834ce",
    "source-5": "6953d7503fbabec2",
    "source-6": "81fe94a242043696",
    "source-7": "22429bf7f339a937",
}
GOLDEN_TIMESTAMP_DIGEST = "5365dcd2bf60ef3d"
GOLDEN_SRS_FIRST_WINDOW = 29838836.287919275
#: The window after it through ``run_window``: exact, approx, srs, at root.
GOLDEN_SECOND_WINDOW = (
    33289992.767869264, 32811331.49023527, 45459333.54783678, 120,
)
#: 200 values from ``random.Random(42)`` per generator.
GOLDEN_GENERATOR_DIGESTS = {
    "gaussian": (lambda: GaussianSubstream("A", 10.0, 5.0), "c7bb079aa27447e5"),
    "poisson-knuth": (lambda: PoissonSubstream("B", 100.0), "646f657701e19d7a"),
    "poisson-normal": (lambda: PoissonSubstream("D", 1e7), "de4950f1875edbc3"),
    "taxi": (lambda: BoroughSubstream("brooklyn"), "fa297610bbe4ea10"),
    "pollution": (lambda: PollutantSubstream("pm"), "8a83d4041ca95316"),
    "skewed-mixture": (paper_skewed_mixture, "8cb90e0779d4e72e"),
}

#: Sums are compared to 1e-12: the draws and the kept records are pinned
#: bit for bit, but summation order is not part of the contract (it
#: differs between Python versions and between numpy and ``array('d')``
#: column storage).
SUM_TOLERANCE = 1e-12


class TestPythonBackendGolden:
    def test_first_window_values_and_srs_are_unchanged(self):
        pipeline, runner = engine_for("python")
        emitted = pipeline.emit_window(0.0)
        for name, payload in emitted.items():
            items = list(payload)
            assert digest(i.value for i in items) == GOLDEN_VALUE_DIGESTS[name]
            assert digest(i.emitted_at for i in items) == GOLDEN_TIMESTAMP_DIGEST
        assert runner.run_srs(emitted) == pytest.approx(
            GOLDEN_SRS_FIRST_WINDOW, rel=SUM_TOLERANCE
        )

    def test_second_window_outcome_is_unchanged(self):
        pipeline, runner = engine_for("python")
        runner.run_srs(pipeline.emit_window(0.0))
        outcome = runner.run_window()
        exact, approx, srs, at_root = GOLDEN_SECOND_WINDOW
        assert outcome.items_sampled == at_root
        assert outcome.exact_sum == pytest.approx(exact, rel=SUM_TOLERANCE)
        assert outcome.approx_sum.value == pytest.approx(
            approx, rel=SUM_TOLERANCE
        )
        assert outcome.srs_sum == pytest.approx(srs, rel=SUM_TOLERANCE)


class TestPythonBackendGoldenPrimitives:
    @pytest.mark.parametrize("label", sorted(GOLDEN_GENERATOR_DIGESTS))
    def test_generator_scalar_draws_are_unchanged(self, label):
        factory, expected = GOLDEN_GENERATOR_DIGESTS[label]
        items = factory().generate(200, random.Random(42), 3.0)
        columns = factory().generate_columns(200, random.Random(42), 3.0)
        assert digest(item.value for item in items) == expected
        assert digest(columns.values) == expected

    def test_coin_flip_mask_is_unchanged(self):
        sampler = CoinFlipSampler(0.1, random.Random(42))
        mask = sampler.decisions(1000)
        assert hashlib.sha256(bytes(mask)).hexdigest()[:16] == "027327dc55e36795"
        assert (sampler.seen, sampler.kept) == (1000, 90)
        twin = CoinFlipSampler(0.1, random.Random(42))
        kept = twin.filter(range(1000))
        assert kept == [i for i, keep in enumerate(mask) if keep]


# ----------------------------------------------------------------------
# (b) numpy backend: bit-reproducible per seed, everywhere
# ----------------------------------------------------------------------
@needs_numpy
class TestNumpyDeterminism:
    def test_same_seed_repeats_byte_for_byte(self):
        runs = []
        for _ in range(2):
            pipeline, runner = engine_for("numpy", seed=7)
            emitted = pipeline.emit_window(0.0)
            columns = {
                name: (
                    digest(i.value for i in payload),
                    digest(i.emitted_at for i in payload),
                )
                for name, payload in emitted.items()
            }
            srs = runner.run_srs(emitted)
            outcomes = [outcome_tuple(w) for w in runner.run(3).windows]
            runs.append((columns, srs, outcomes))
        assert runs[0] == runs[1]

    def test_srs_masks_repeat_and_differ_from_python(self):
        masks = [
            CoinFlipSampler(
                0.3, random.Random(5), backend="numpy"
            ).decisions(500).tobytes()
            for _ in range(2)
        ]
        assert masks[0] == masks[1]
        scalar = CoinFlipSampler(0.3, random.Random(5)).decisions(500)
        assert bytes(scalar) != masks[0]

    @pytest.mark.usefixtures("shard_path")
    def test_two_processes_equal_their_inline_twin(self):
        config = PipelineConfig(
            sampling_fraction=0.2, seed=13, backend="numpy", workers=2,
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
# (d) a random.Random-only generator still runs under numpy
# ----------------------------------------------------------------------
class ScalarOnlyGenerator:
    """Implements the protocol's ``generate`` and nothing else."""

    def __init__(self, name):
        self.name = name
        self.rng_types = set()

    def generate(self, count, rng, emitted_at=0.0):
        self.rng_types.add(type(rng))
        return [
            StreamItem(self.name, rng.gauss(10.0, 1.0), emitted_at)
            for _ in range(count)
        ]


@needs_numpy
class TestScalarOnlyGeneratorUnderNumpy:
    def test_statistical_run(self):
        generators = {name: ScalarOnlyGenerator(name) for name in "ABCD"}
        _pipeline, runner = engine_for(
            "numpy", fraction=0.2, generators=generators
        )
        outcome = runner.run(2)
        assert all(w.items_emitted == 1200 for w in outcome.windows)
        assert outcome.mean_approxiot_loss < 5.0
        for generator in generators.values():
            assert generator.rng_types == {random.Random}

    def test_deployment_run(self):
        generators = {name: ScalarOnlyGenerator(name) for name in "ABCD"}
        config = PipelineConfig(
            sampling_fraction=0.2, seed=3, mode="srs", backend="numpy",
        )
        report = DeploymentSimulator(
            config, SCHEDULE, generators, n_windows=2
        ).run()
        assert report.items_emitted == 2400
        assert 0 < report.items_at_root < report.items_emitted


# ----------------------------------------------------------------------
# (e) deterministic perf gate: counters, never clocks
# ----------------------------------------------------------------------
@needs_numpy
def test_numpy_window_makes_o_sources_scalar_rng_calls(monkeypatch):
    """One 100 k-item window costs O(sources) ``random.Random`` calls.

    ``gauss`` and ``random`` are the two per-record calls the scalar
    path makes (value draw, coin flip); on the numpy backend neither
    may scale with the item count.
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
    pipeline, runner = engine_for("numpy", schedule=schedule)
    outcome, _theta = runner.run_window_with_theta()
    assert outcome.items_emitted == 100_000
    sources = len(pipeline.tree.sources)
    assert calls["gauss"] + calls["random"] <= 4 * sources, calls
    # The counter does see the scalar path: same window, python backend.
    _pipeline, scalar = engine_for("python", schedule=schedule)
    scalar.run_window_with_theta()
    assert calls["gauss"] >= 100_000 and calls["random"] >= 100_000


@needs_numpy
def test_numpy_run_builds_o_sources_generators(monkeypatch):
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
        _pipeline, runner = engine_for("numpy")
        runner.run(windows)

    def srs_deployment_run(windows):
        config = PipelineConfig(
            sampling_fraction=0.1, seed=42, mode="srs", backend="numpy",
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


# ----------------------------------------------------------------------
# (f) the one-shot kernel: a uniform subset on either side of n / 2
# ----------------------------------------------------------------------
@needs_numpy
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
        _pipeline, runner = engine_for("numpy", fraction=fraction)
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
        result = whsamp_batches(batches, 200, backend="numpy", gen=gen)
        assert result.sampled_count == 200
        assert gen.bit_generator.state == before
        whsamp_batches(batches, 199, backend="numpy", gen=gen)
        assert gen.bit_generator.state != before
