"""Cross-transport parity: the seed defines the run.

The engine's contract is that every transport delivers batches in send
order per destination, so a seeded run must produce *identical* samples
— and therefore identical per-window root estimates — whether batches
move by in-process callback or through broker topics. The Eq. 8 count invariant is asserted end-to-end on
the root's Theta store as the estimates are compared.
"""

import pytest

from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import BrokerTransport, InProcessTransport
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "parity", {"A": 300.0, "B": 300.0, "C": 300.0, "D": 300.0}
)

TRANSPORTS = {"inprocess": InProcessTransport, "broker": BrokerTransport}


def config_for(fraction=0.2, seed=13):
    return PipelineConfig(
        sampling_fraction=fraction, window_seconds=1.0, seed=seed
    )


def runner_on(transport, config):
    """An engine over a fresh pipeline, moving batches on ``transport``."""
    pipeline = build_pipeline(config, SCHEDULE, GENS)
    return EngineRunner(pipeline, TRANSPORTS[transport]())


class TestCrossTransportParity:
    def test_identical_per_window_root_estimates(self):
        """In-process and broker runs agree bit-for-bit, window by window."""
        runs = {
            transport: runner_on(transport, config_for()).run(4)
            for transport in TRANSPORTS
        }
        inproc, broker = runs["inprocess"].windows, runs["broker"].windows
        assert len(inproc) == len(broker) == 4
        for window_a, window_b in zip(inproc, broker):
            assert window_a.approx_sum.value == window_b.approx_sum.value
            assert window_a.approx_sum.error == window_b.approx_sum.error
            assert window_a.srs_sum == window_b.srs_sum
            assert window_a.exact_sum == window_b.exact_sum
            assert window_a.items_sampled == window_b.items_sampled

    def test_eq8_count_invariant_end_to_end(self):
        """``sum(|I| * W_out)`` over Theta recovers the emitted count
        exactly on every transport."""
        for transport in TRANSPORTS:
            runner = runner_on(transport, config_for(fraction=0.1))
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
        """The pass-through strategy reaches the ground truth on every
        transport (it consumes no randomness on the way)."""
        for transport in TRANSPORTS:
            runner = runner_on(transport, config_for())
            pipeline = runner.pipeline
            emitted = pipeline.emit_window(0.0)
            direct = sum(
                item.value for batch in emitted.values() for item in batch
            )
            assert runner.run_native(emitted) == pytest.approx(
                direct, rel=1e-12
            )

