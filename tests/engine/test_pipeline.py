"""Unit tests for pipeline assembly."""

import pytest

from repro.engine.pipeline import build_pipeline
from repro.errors import PipelineError
from repro.system.config import PipelineConfig
from repro.topology.tree import LogicalTree
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "asm", {"A": 400.0, "B": 400.0, "C": 400.0, "D": 400.0}
)


def make_pipeline(**config_kwargs):
    config = PipelineConfig(
        sampling_fraction=config_kwargs.pop("sampling_fraction", 0.1),
        seed=config_kwargs.pop("seed", 11),
        **config_kwargs,
    )
    return build_pipeline(config, SCHEDULE, GENS)


class TestAssembly:
    def test_one_source_per_source_node(self):
        pipeline = make_pipeline()
        assert set(pipeline.sources) == {
            node.name for node in pipeline.tree.sources
        }

    def test_substream_rates_split_across_owners(self):
        # 4 sub-streams over 8 sources: each sub-stream is produced by
        # 2 sources at half the scheduled rate.
        pipeline = make_pipeline()
        assert all(
            rate == pytest.approx(200.0)
            for rate in pipeline.source_rates.values()
        )

    def test_budgets_scale_with_subtree(self):
        pipeline = make_pipeline(sampling_fraction=0.1)
        assert pipeline.budget("l1-0") == pytest.approx(0.1 * 400, abs=2)
        assert pipeline.budget("l2-0") == pytest.approx(0.1 * 800, abs=2)
        assert pipeline.budget("root") == pytest.approx(0.1 * 1600, abs=2)

    def test_budgets_scale_with_window(self):
        narrow = make_pipeline(window_seconds=1.0).budget("root")
        wide = make_pipeline(window_seconds=2.0).budget("root")
        assert wide == pytest.approx(2 * narrow, rel=0.05)

    def test_one_generator_per_run(self):
        import numpy

        pipeline = make_pipeline()
        assert isinstance(pipeline.gen, numpy.random.Generator)

    def test_unknown_budget_rejected(self):
        pipeline = make_pipeline()
        with pytest.raises(PipelineError):
            pipeline.budget("source-0")


class TestValidation:
    def test_missing_generator(self):
        schedule = RateSchedule("s", {"Z": 100.0})
        with pytest.raises(PipelineError):
            build_pipeline(PipelineConfig(), schedule, GENS)

    def test_more_substreams_than_sources(self):
        tree = LogicalTree([2, 1])
        schedule = RateSchedule(
            "wide", {"A": 10.0, "B": 10.0, "C": 10.0, "D": 10.0}
        )
        with pytest.raises(PipelineError):
            build_pipeline(PipelineConfig(tree=tree), schedule, GENS)


class TestEmission:
    def test_emit_window_covers_all_sources(self):
        pipeline = make_pipeline()
        emitted = pipeline.emit_window(0.0)
        assert set(emitted) == set(pipeline.sources)
        total = sum(len(batch) for batch in emitted.values())
        assert total == pytest.approx(1600, rel=0.05)

    def test_emission_is_seed_deterministic(self):
        a = make_pipeline(seed=5).emit_window(0.0)
        b = make_pipeline(seed=5).emit_window(0.0)
        assert {k: v.values.tolist() for k, v in a.items()} == {
            k: v.values.tolist() for k, v in b.items()
        }
