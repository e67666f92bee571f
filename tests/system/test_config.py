"""Unit tests for the frozen pipeline configuration."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.system.config import (
    MAX_SHARD_TIMEOUT,
    ExecutionMode,
    PipelineConfig,
)


class TestImmutability:
    def test_config_is_frozen(self):
        config = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sampling_fraction = 0.5

    def test_with_seed(self):
        config = PipelineConfig(seed=1)
        derived = dataclasses.replace(config, seed=2)
        assert derived.seed == 2
        assert config.seed == 1
        assert derived.sampling_fraction == config.sampling_fraction

    def test_with_mode_chainable(self):
        config = dataclasses.replace(
            PipelineConfig(),
            mode=ExecutionMode.SRS,
            sampling_fraction=0.5,
            seed=9,
        )
        assert config.mode == ExecutionMode.SRS
        assert config.sampling_fraction == 0.5
        assert config.seed == 9

    def test_no_wrapper_methods_remain(self):
        """Variants come from dataclasses.replace, not per-knob helpers."""
        assert not [
            name for name in dir(PipelineConfig) if name.startswith("with_")
        ]


class TestFiniteValues:
    """Values a run cannot use are rejected up front, not on window 1."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("window_seconds", math.nan),
            ("window_seconds", math.inf),
            ("window_seconds", -math.inf),
            ("sampling_fraction", math.nan),
            ("sampling_fraction", math.inf),
            ("confidence", math.nan),
            ("shard_timeout", math.nan),
            ("shard_timeout", math.inf),
            ("shard_timeout", 3e6),
            ("shard_timeout", MAX_SHARD_TIMEOUT + 1),
        ],
    )
    def test_rejected(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob.split("_")[0]):
            PipelineConfig(**{knob: value})

    def test_longest_pollable_timeout_accepted(self):
        assert PipelineConfig(shard_timeout=1e6).shard_timeout == 1e6
        assert (
            PipelineConfig(shard_timeout=MAX_SHARD_TIMEOUT).shard_timeout
            == MAX_SHARD_TIMEOUT
        )


class TestOneSamplingImplementation:
    """``backend`` stays declared for callers that name it, with one
    legal value; nothing reads it."""

    def test_numpy_is_the_default_and_only_value(self):
        assert PipelineConfig().backend == "numpy"
        assert PipelineConfig(backend="numpy").backend == "numpy"

    @pytest.mark.parametrize("value", ["python", "auto", "cython"])
    def test_any_other_value_rejected(self, value):
        with pytest.raises(ConfigurationError, match="backend"):
            PipelineConfig(backend=value)


class TestOneTransportPerEngine:
    """The statistical engine runs in-process and the deployment
    simulator over simnet; no config field picks between them."""

    def test_config_has_no_transport_field(self):
        names = {knob.name for knob in dataclasses.fields(PipelineConfig)}
        assert "transport" not in names
        with pytest.raises(TypeError):
            PipelineConfig(transport="broker")

    def test_system_loads_no_streams_module(self):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import json, sys; import repro.system; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('repro.streams'))))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_statistical_engine_moves_batches_in_process(self):
        from repro.engine.transport import InProcessTransport
        from repro.system.statistical import StatisticalRunner
        from repro.workloads.rates import RateSchedule
        from repro.workloads.synthetic import paper_gaussian_substreams

        gens = {g.name: g for g in paper_gaussian_substreams()}
        schedule = RateSchedule("one", {name: 50.0 for name in gens})
        runner = StatisticalRunner(PipelineConfig(seed=3), schedule, gens)
        assert type(runner.engine.transport) is InProcessTransport

    def test_deployment_moves_batches_over_simnet(self):
        from repro.engine.transport import SimnetBrokerTransport
        from repro.system.deployment import DeploymentSimulator
        from repro.workloads.rates import RateSchedule
        from repro.workloads.synthetic import paper_gaussian_substreams

        gens = {g.name: g for g in paper_gaussian_substreams()}
        schedule = RateSchedule("one", {name: 50.0 for name in gens})
        simulator = DeploymentSimulator(
            PipelineConfig(seed=3), schedule, gens, n_windows=1
        )
        assert type(simulator._transport) is SimnetBrokerTransport
