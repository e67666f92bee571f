"""Fault-injection harness: specs, plans, detonation, validation.

The harness's contract (:mod:`repro.engine.faults`):

* fault specs are typed and validated loudly — kind, shard and window
  are checked at construction, and the ``kind@shard:window`` CLI form
  round-trips exactly;
* a plan is a pure frozen value: picklable, unique per coordinate, and
  ``seeded()`` plans are a deterministic function of the seed;
* ``fire`` covers the process-fatal kinds (``raise`` is observable in
  a test; ``crash``/``hang`` are exercised end-to-end in
  ``test_supervision.py``) and ``corrupt_frame`` deterministically
  mangles both shm descriptors and pipe codec frames;
* plans are rejected wherever there is no shard process to kill:
  single-worker facades, inline execution, out-of-range shard targets,
  and hang faults without a watchdog to detect them.
"""

import pickle
from dataclasses import replace

import pytest

from repro.engine.faults import (
    CORRUPT_DESCRIPTOR,
    CRASH,
    FAULT_KINDS,
    HANG,
    RAISE,
    FaultPlan,
    FaultSpec,
    corrupt_frame,
    fire,
)
from repro.engine.sharding import ShardedEngineRunner
from repro.errors import ConfigurationError, InjectedFaultError
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "fault-test", {"A": 60.0, "B": 60.0, "C": 60.0, "D": 60.0}
)


class TestFaultSpec:
    def test_cli_form_round_trips(self):
        for text in ("crash@0:1", "hang@3:0", "raise@1:7",
                     "corrupt-descriptor@2:2"):
            assert FaultSpec.parse(text).describe() == text

    def test_parse_rejects_malformed_forms(self):
        for text in ("crash", "crash@1", "crash@:1", "crash@one:2",
                     "crash@1:two", "@1:2"):
            with pytest.raises(ConfigurationError, match="fault spec|kind"):
                FaultSpec.parse(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            FaultSpec("meteor", 0, 0)

    def test_rejects_negative_coordinates(self):
        with pytest.raises(ConfigurationError, match="shard"):
            FaultSpec(CRASH, -1, 0)
        with pytest.raises(ConfigurationError, match="window"):
            FaultSpec(CRASH, 0, -1)


class TestFaultPlan:
    def test_parse_builds_specs(self):
        plan = FaultPlan.parse(["crash@0:1", "raise@1:2"])
        assert plan.faults == (
            FaultSpec(CRASH, 0, 1), FaultSpec(RAISE, 1, 2)
        )
        assert bool(plan) and not bool(FaultPlan())

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(ConfigurationError, match="twice"):
            FaultPlan.parse(["crash@0:1", "hang@0:1"])

    def test_for_shard_filters_and_orders_by_window(self):
        plan = FaultPlan.parse(["raise@1:5", "crash@0:1", "hang@1:2"])
        assert [s.window for s in plan.for_shard(1)] == [2, 5]
        assert plan.for_shard(2) == ()
        assert plan.max_shard() == 1

    def test_needs_watchdog_only_for_hang(self):
        assert FaultPlan.parse(["hang@0:0"]).needs_watchdog
        assert not FaultPlan.parse(["crash@0:0", "raise@1:1"]).needs_watchdog

    def test_seeded_is_deterministic_and_unique(self):
        one = FaultPlan.seeded(7, shards=3, windows=5, count=4)
        two = FaultPlan.seeded(7, shards=3, windows=5, count=4)
        other = FaultPlan.seeded(8, shards=3, windows=5, count=4)
        assert one == two
        assert one != other
        cells = [(s.shard, s.window) for s in one.faults]
        assert len(set(cells)) == 4
        assert all(s.shard < 3 and s.window < 5 for s in one.faults)
        assert all(s.kind in FAULT_KINDS for s in one.faults)

    def test_seeded_validates_its_grid(self):
        with pytest.raises(ConfigurationError, match="grid"):
            FaultPlan.seeded(1, shards=0, windows=3)
        with pytest.raises(ConfigurationError, match="count"):
            FaultPlan.seeded(1, shards=2, windows=2, count=5)
        with pytest.raises(ConfigurationError, match="kinds"):
            FaultPlan.seeded(1, shards=2, windows=2, kinds=("meteor",))

    def test_plan_is_picklable(self):
        plan = FaultPlan.seeded(3, shards=2, windows=4, count=2)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestDetonation:
    def test_raise_kind_raises_injected_fault_error(self):
        with pytest.raises(InjectedFaultError, match="raise@0:1"):
            fire(FaultSpec(RAISE, 0, 1))

    def test_corrupt_descriptor_is_not_process_fatal(self):
        with pytest.raises(ConfigurationError, match="corrupt_frame"):
            fire(FaultSpec(CORRUPT_DESCRIPTOR, 0, 0))

    def test_corrupt_frame_mangles_a_shm_descriptor(self):
        assert corrupt_frame((4, 128, 64)) == (5, 128, 64)

    def test_corrupt_frame_truncates_pipe_bytes(self):
        frame = corrupt_frame(b"0123456789")
        assert frame == b"01234"
        assert corrupt_frame(b"x") == b"x"[:1]

    def test_corrupt_frame_passes_empty_slots_through(self):
        assert corrupt_frame(None) is None


class TestPlanValidation:
    def test_config_rejects_non_plan_values(self):
        with pytest.raises(ConfigurationError, match="fault_plan"):
            PipelineConfig(fault_plan="crash@0:1")

    def test_config_accepts_a_plan(self):
        plan = FaultPlan.parse(["crash@0:1"])
        assert PipelineConfig(workers=2, fault_plan=plan).fault_plan is plan

    def test_single_worker_facade_rejects_plans(self):
        config = PipelineConfig(
            workers=1, backend="python",
            fault_plan=FaultPlan.parse(["crash@0:1"]),
        )
        with pytest.raises(ConfigurationError, match="workers"):
            StatisticalRunner(config, SCHEDULE, GENS)

    def test_inline_execution_rejects_plans(self):
        config = PipelineConfig(
            workers=2, backend="python",
            fault_plan=FaultPlan.parse(["crash@0:1"]),
        )
        with pytest.raises(ConfigurationError, match="inline"):
            ShardedEngineRunner(config, SCHEDULE, GENS, inline=True)

    def test_out_of_range_shard_target_rejected(self):
        config = PipelineConfig(
            workers=2, backend="python",
            fault_plan=FaultPlan.parse(["crash@5:0"]),
        )
        with pytest.raises(ConfigurationError, match="shard 5"):
            ShardedEngineRunner(config, SCHEDULE, GENS)

    def test_hang_without_watchdog_rejected(self):
        config = PipelineConfig(
            workers=2, backend="python",
            fault_plan=FaultPlan.parse(["hang@0:0"]),
        )
        with pytest.raises(ConfigurationError, match="shard_timeout"):
            ShardedEngineRunner(config, SCHEDULE, GENS)


class TestSupervisionKnobs:
    def test_shard_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="shard_timeout"):
            PipelineConfig(shard_timeout=0.0)
        with pytest.raises(ConfigurationError, match="shard_timeout"):
            PipelineConfig(shard_timeout=-1.0)
        assert PipelineConfig(shard_timeout=None).shard_timeout is None

    def test_max_shard_restarts_must_be_a_natural_number(self):
        with pytest.raises(ConfigurationError, match="max_shard_restarts"):
            PipelineConfig(max_shard_restarts=-1)
        with pytest.raises(ConfigurationError, match="max_shard_restarts"):
            PipelineConfig(max_shard_restarts=1.5)

    def test_on_shard_loss_must_be_a_known_policy(self):
        with pytest.raises(ConfigurationError, match="on_shard_loss"):
            PipelineConfig(on_shard_loss="panic")

    def test_with_helpers_derive_variants(self):
        plan = FaultPlan.parse(["raise@0:0"])
        config = replace(
            PipelineConfig(), shard_timeout=2.5, max_shard_restarts=0,
            on_shard_loss="degrade", workers=2, fault_plan=plan,
        )
        assert config.shard_timeout == 2.5
        assert config.max_shard_restarts == 0
        assert config.on_shard_loss == "degrade"
        assert config.fault_plan is plan
