"""End-to-end invariants of the engine over the in-process transport.

The Eq. 8 count invariant is asserted on the root's Theta store, the
native strategy's ground truth must be the exact emitted sum, and the
SRS baseline must be Horvitz-Thompson over one coin flip per record.
"""

import pytest

from repro.core.columns import masked_sum
from repro.core.srs import coin_flips
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import InProcessTransport
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "parity", {"A": 300.0, "B": 300.0, "C": 300.0, "D": 300.0}
)


def config_for(fraction=0.2, seed=13):
    return PipelineConfig(
        sampling_fraction=fraction, window_seconds=1.0, seed=seed
    )


def runner_for(config):
    """An engine over a fresh pipeline and in-process transport."""
    pipeline = build_pipeline(config, SCHEDULE, GENS)
    return EngineRunner(pipeline, InProcessTransport())


class TestEndToEndInvariants:
    def test_eq8_count_invariant_end_to_end(self):
        """``sum(|I| * W_out)`` over Theta recovers the emitted count
        exactly."""
        runner = runner_for(config_for(fraction=0.1))
        pipeline = runner.pipeline
        for start in range(3):
            emitted = pipeline.emit_window(float(start))
            emitted_count = sum(len(b) for b in emitted.values())
            window = runner.run_approxiot(emitted)
            recovered = sum(
                estimate.estimated_count
                for estimate in window.theta.per_substream().values()
            )
            assert recovered == pytest.approx(emitted_count, rel=1e-9)
            assert 0 < window.sampled < emitted_count

    def test_native_strategy_recovers_exact_sum(self):
        """A window's ground truth is the sum of every value its
        sources emitted (a twin pipeline emits the same window)."""
        emitted = runner_for(config_for()).pipeline.emit_window(0.0)
        direct = sum(
            value for batch in emitted.values() for value in batch.values.tolist()
        )
        window = runner_for(config_for()).run_window()
        assert window.exact_sum == pytest.approx(direct, rel=1e-12)


class TestSrsBaseline:
    """``run_srs``: one ``coin_flips`` mask per source, from ``Pipeline.gen``."""

    @staticmethod
    def expected_srs(fraction, seed):
        """The Horvitz-Thompson estimate by hand, on a twin pipeline."""
        pipeline = runner_for(config_for(fraction, seed)).pipeline
        emitted = pipeline.emit_window(0.0)
        kept = 0.0
        for node in pipeline.tree.sources:
            values = emitted[node.name].values
            kept += masked_sum(
                values, coin_flips(pipeline.gen, fraction, len(values))
            )
        return kept / fraction, pipeline.gen

    @pytest.mark.parametrize("fraction, seed", [(0.1, 13), (0.5, 3), (1.0, 7)])
    def test_estimate_is_horvitz_thompson_over_coin_flips(self, fraction, seed):
        runner = runner_for(config_for(fraction, seed))
        srs = runner.run_srs(runner.pipeline.emit_window(0.0))
        expected, _ = self.expected_srs(fraction, seed)
        assert srs == expected

    def test_flips_consume_the_pipeline_generator_in_tree_order(self):
        runner = runner_for(config_for(0.2, 5))
        runner.run_srs(runner.pipeline.emit_window(0.0))
        _, twin_gen = self.expected_srs(0.2, 5)
        assert runner.pipeline.gen.random() == twin_gen.random()

    def test_fraction_one_is_the_exact_sum(self):
        runner = runner_for(config_for(1.0))
        emitted = runner.pipeline.emit_window(0.0)
        direct = sum(batch.value_sum() for batch in emitted.values())
        assert runner.run_srs(emitted) == pytest.approx(direct, rel=1e-12)
