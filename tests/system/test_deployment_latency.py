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
    """100 k items/s for 8 windows: hundreds of calls, not 10^5 of them."""
    calls = {"record": 0, "record_column": 0}
    for name in calls:
        original = getattr(LatencyRecorder, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(LatencyRecorder, name, counted)

    sim = simulator(mode, scale=1.0)
    delivered = 0
    finish_streaming, finish_windowed = (
        sim._finish_streaming, sim._finish_windowed
    )

    def streaming(node_name, batch):
        nonlocal delivered
        delivered += node_name == "root"
        finish_streaming(node_name, batch)

    def windowed(node_name, batches):
        nonlocal delivered
        delivered += len(batches) if node_name == "root" else 0
        finish_windowed(node_name, batches)

    sim._finish_streaming, sim._finish_windowed = streaming, windowed
    report = sim.run()

    assert report.items_emitted == 800_000
    assert calls["record"] == 0
    assert 0 < calls["record_column"] <= delivered < 1000
    # The samples are all there: they arrived as columns.
    assert sim.latency_recorder.count >= 50 * calls["record_column"]
    if mode != "approxiot":  # approxiot records what the root *kept*
        assert sim.latency_recorder.count == report.items_at_root

