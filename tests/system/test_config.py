"""Unit tests for the frozen pipeline configuration."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.system.config import (
    MAX_SHARD_TIMEOUT,
    TRANSPORTS,
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

    def test_with_transport(self):
        config = PipelineConfig()
        assert config.transport == "auto"
        derived = dataclasses.replace(config, transport="broker")
        assert derived.transport == "broker"
        assert config.transport == "auto"

    def test_with_mode_chainable(self):
        config = dataclasses.replace(
            PipelineConfig(),
            mode=ExecutionMode.SRS,
            sampling_fraction=0.5,
            backend="python",
            seed=9,
        )
        assert config.mode == ExecutionMode.SRS
        assert config.sampling_fraction == 0.5
        assert config.backend == "python"
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


class TestTransportValidation:
    def test_all_declared_transports_accepted(self):
        for transport in TRANSPORTS:
            assert PipelineConfig(transport=transport).transport == transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(transport="carrier-pigeon")
