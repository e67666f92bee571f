"""End-to-end invariants of the engine over the in-process transport.

The Eq. 8 count invariant is asserted on the root's Theta store, and
the pass-through strategy must reach the exact ground truth.
"""

import pytest

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
        """The pass-through strategy reaches the ground truth (it
        consumes no randomness on the way)."""
        runner = runner_for(config_for())
        pipeline = runner.pipeline
        emitted = pipeline.emit_window(0.0)
        direct = sum(
            item.value for batch in emitted.values() for item in batch
        )
        assert runner.run_native(emitted) == pytest.approx(
            direct, rel=1e-12
        )
