"""Unit tests for the experiment scaffolding."""

import dataclasses

import pytest

from repro.engine.faults import FaultPlan
from repro.errors import ConfigurationError
from repro.experiments.base import (
    ExperimentScale,
    PAPER_FRACTIONS,
    WORKLOADS,
    base_config,
    gaussian_generators,
    poisson_generators,
    saturating_placement,
    taxi_workload,
    uniform_schedule,
)
from repro.system.config import PipelineConfig
from repro.topology.tree import LogicalTree

#: What ``base_config`` sets from its own arguments; everything else
#: comes from the scale's config template.
POINT_FIELDS = {"sampling_fraction", "window_seconds", "mode", "placement"}


class TestScale:
    def test_quick_smaller_than_bench(self):
        assert ExperimentScale.quick().rate_scale < ExperimentScale.bench().rate_scale

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(rate_scale=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(windows=0)

    def test_sizing_plus_one_config_template(self):
        """Engine knobs live on the template, never re-declared here."""
        assert [f.name for f in dataclasses.fields(ExperimentScale)] == [
            "rate_scale", "windows", "config",
        ]
        assert ExperimentScale.quick().config == PipelineConfig()


class TestBaseConfig:
    TEMPLATE = PipelineConfig(
        sampling_fraction=0.7,
        window_seconds=3.0,
        mode="native",
        tree=LogicalTree([4, 2, 1]),
        confidence=0.9,
        seed=7,
        workers=3,
        budget_controller="variance_aware",
        shard_timeout=2.5,
        max_shard_restarts=1,
        on_shard_loss="degrade",
        fault_plan=FaultPlan.parse(["raise@0:0"]),
    )

    def test_carries_every_template_field_through(self):
        scale = ExperimentScale(config=self.TEMPLATE)
        config = base_config(0.2, scale)
        for knob in dataclasses.fields(PipelineConfig):
            if knob.name not in POINT_FIELDS:
                assert getattr(config, knob.name) is getattr(
                    self.TEMPLATE, knob.name
                ), knob.name
        assert config.placement is self.TEMPLATE.placement

    def test_overrides_only_the_point(self):
        placement = saturating_placement(uniform_schedule(0.1))
        scale = ExperimentScale(config=self.TEMPLATE)
        config = base_config(
            0.2, scale, window_seconds=0.5, mode="srs", placement=placement
        )
        assert (
            config.sampling_fraction, config.window_seconds, config.mode,
        ) == (0.2, 0.5, "srs")
        assert config.placement is placement
        assert dataclasses.replace(
            config, **{name: getattr(self.TEMPLATE, name)
                       for name in POINT_FIELDS}
        ) == self.TEMPLATE

    def test_defaults_match_a_fresh_config(self):
        """The default point on the default template is the default
        config, as the figures have always run."""
        config = base_config(0.4, ExperimentScale.bench())
        assert config == PipelineConfig(sampling_fraction=0.4)


class TestFactories:
    def test_paper_fractions(self):
        assert PAPER_FRACTIONS == [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]

    def test_generator_maps_cover_abcd(self):
        assert set(gaussian_generators()) == {"A", "B", "C", "D"}
        assert set(poisson_generators()) == {"A", "B", "C", "D"}

    def test_uniform_schedule_scaling(self):
        schedule = uniform_schedule(0.1)
        assert schedule.rates["A"] == 2500.0
        assert schedule.total_rate == 10_000.0

    def test_saturating_placement_root_below_offered(self):
        schedule = uniform_schedule(0.1)
        spec = saturating_placement(schedule, headroom=10.0)
        root_rate = spec.layer_service_rates[-1]
        assert root_rate == pytest.approx(schedule.total_rate / 10.0)
        # Edges can absorb the whole offered load in aggregate (4 nodes).
        edge_rate = spec.layer_service_rates[1]
        assert 4 * edge_rate > schedule.total_rate

    def test_headroom_validated(self):
        with pytest.raises(ConfigurationError):
            saturating_placement(uniform_schedule(0.1), headroom=1.0)


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_scheduled_substream_has_a_generator(self, name):
        schedule, generators = WORKLOADS[name](ExperimentScale.quick())
        assert set(schedule.rates) == set(generators)

    def test_taxi_rates_follow_borough_shares(self):
        """Manhattan dominates the 2013 ride volume."""
        schedule, _generators = taxi_workload(ExperimentScale.bench())
        manhattan = schedule.rates["taxi/manhattan"]
        assert manhattan > schedule.total_rate - manhattan
