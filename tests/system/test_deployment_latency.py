"""Latency recording in the deployment simulator is column-wise.

A run makes one recorder call per batch delivered at the root (a
counter gate — counts, never clocks).
"""

import pytest

from repro.experiments.base import (
    gaussian_generators,
    saturating_placement,
    uniform_schedule,
)
from repro.simnet.stats import LatencyRecorder
from repro.system.config import PipelineConfig
from repro.system.deployment import DeploymentSimulator

#: The Fig. 6 point the performance benchmark's ``deploy-replay`` runs.
MODES = {"approxiot": 0.1, "srs": 0.1, "native": 1.0}


def simulator(mode, *, scale, seed=42):
    schedule = uniform_schedule(scale)
    config = PipelineConfig(
        sampling_fraction=MODES[mode], seed=seed, mode=mode,
        placement=saturating_placement(schedule),
    )
    return DeploymentSimulator(
        config, schedule, gaussian_generators(), n_windows=8
    )


@pytest.mark.parametrize("mode", MODES)
def test_one_recorder_call_per_batch_delivered_at_root(mode, monkeypatch):
    """100 k items/s for 8 windows: hundreds of calls, not 10^5 of them.

    A streaming root is a sink settled on arrival, so its deliveries are
    counted where they arrive; an approxiot root at its interval close.
    """
    calls = 0
    record_column = LatencyRecorder.record_column

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return record_column(self, *args)

    monkeypatch.setattr(LatencyRecorder, "record_column", counted)

    sim = simulator(mode, scale=1.0)
    delivered = 0
    deliver_streaming, finish_windowed = (
        sim._deliver_streaming, sim._finish_windowed
    )

    def streaming(delivery):
        nonlocal delivered
        node_name, _batch = delivery
        delivered += node_name == "root"
        deliver_streaming(delivery)

    def windowed(interval):
        nonlocal delivered
        node_name, batches = interval
        delivered += len(batches) if node_name == "root" else 0
        finish_windowed(interval)

    sim._deliver_streaming, sim._finish_windowed = streaming, windowed
    report = sim.run()

    assert report.items_emitted == 800_000
    assert 0 < calls <= delivered < 1000
    # The samples are all there: they arrived as columns.
    assert sim.latency_recorder.count >= 50 * calls
    if mode != "approxiot":  # approxiot records what the root *kept*
        assert sim.latency_recorder.count == report.items_at_root
