"""Sharded multi-process execution: determinism, parity, Eq. 8.

The sharded engine's contract (§III-E made physical):

* a fixed ``(seed, workers)`` pair fully determines the run — two
  sharded runs are bit-identical, and inline (sequential, in-process)
  execution matches real multi-process execution exactly;
* ``workers=1`` sharded execution *is* the in-process engine, window
  by window, bit for bit;
* the root merge respects Eq. 8: the merged Theta store recovers the
  union's emitted count exactly, and accuracy stays within the
  single-process engine's envelope for all three strategies.
"""

from dataclasses import replace

import pytest

from repro.core.estimator import ThetaStore
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.sharding import ShardedEngineRunner, plan_shards
from repro.engine.transport import InProcessTransport
from repro.errors import ConfigurationError, PipelineError
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "shard-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)


def config_for(workers=1, seed=13, fraction=0.2):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        workers=workers,
    )


def outcome_tuple(window):
    return (
        window.window_index,
        window.items_emitted,
        window.items_sampled,
        window.exact_sum,
        window.srs_sum,
        window.approx_sum.value,
        window.approx_sum.error,
    )


class TestShardPlanner:
    def test_single_worker_plan_is_the_run_itself(self):
        plans = plan_shards(config_for(workers=1), SCHEDULE)
        assert len(plans) == 1
        assert plans[0].seed == 13
        assert plans[0].schedule is SCHEDULE

    def test_plan_is_deterministic_in_seed_and_workers(self):
        first = plan_shards(config_for(workers=4), SCHEDULE)
        second = plan_shards(config_for(workers=4), SCHEDULE)
        assert [p.seed for p in first] == [p.seed for p in second]
        assert len({p.seed for p in first}) == 4  # distinct shard streams

    def test_shard_rates_sum_to_the_original_schedule(self):
        plans = plan_shards(config_for(workers=3), SCHEDULE)
        for substream, rate in SCHEDULE.rates.items():
            shares = sum(p.schedule.rates[substream] for p in plans)
            assert shares == pytest.approx(rate, rel=1e-12)

    def test_different_seeds_give_different_shard_seeds(self):
        seeds_a = [p.seed for p in plan_shards(config_for(workers=3), SCHEDULE)]
        seeds_b = [
            p.seed
            for p in plan_shards(config_for(workers=3, seed=14), SCHEDULE)
        ]
        assert seeds_a != seeds_b


class TestSingleWorkerParity:
    def test_workers1_matches_the_inprocess_engine_bitwise(self):
        config = config_for(workers=1)
        direct = EngineRunner(
            build_pipeline(config, SCHEDULE, GENS),
            InProcessTransport(),
        ).run(4)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as sharded:
            merged = sharded.run(4)
        assert [outcome_tuple(w) for w in direct.windows] == [
            outcome_tuple(w) for w in merged.windows
        ]


class TestDeterminism:
    def test_same_seed_and_workers_reproduce_bitwise(self):
        config = config_for(workers=3)
        runs = []
        for _ in range(2):
            with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
                runs.append(runner.run(3))
        assert [outcome_tuple(w) for w in runs[0].windows] == [
            outcome_tuple(w) for w in runs[1].windows
        ]

    def test_inline_matches_multiprocess_execution(self):
        config = config_for(workers=3)
        inline = ShardedEngineRunner(
            config, SCHEDULE, GENS, inline=True
        ).run(3)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
            processes = runner.run(3)
        assert [outcome_tuple(w) for w in inline.windows] == [
            outcome_tuple(w) for w in processes.windows
        ]

    def test_stepwise_windows_continue_shard_state(self):
        config = config_for(workers=2)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as stepped:
            windows = [stepped.run_window() for _ in range(3)]
        with ShardedEngineRunner(config, SCHEDULE, GENS) as whole:
            batch = whole.run(3)
        assert [outcome_tuple(w) for w in windows if w is not None] == [
            outcome_tuple(w) for w in batch.windows
        ]


class TestMergeCorrectness:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_eq8_count_recovery_over_the_merged_theta(self, workers):
        """The merged store recovers the union's emitted count exactly."""
        config = config_for(workers=workers, fraction=0.1)
        emitted_total = 0
        merged = ThetaStore()
        for plan in plan_shards(config, SCHEDULE):
            pipeline = build_pipeline(
                replace(config, seed=plan.seed, workers=1),
                plan.schedule,
                GENS,
            )
            runner = EngineRunner(pipeline, InProcessTransport())
            outcome, theta = runner.run_window_with_theta()
            assert outcome is not None
            emitted_total += outcome.items_emitted
            merged.merge(theta)
        recovered = sum(
            est.estimated_count
            for est in merged.per_substream().values()
        )
        assert recovered == pytest.approx(emitted_total, rel=1e-9)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_all_three_strategies_stay_accurate(self, workers):
        """ApproxIoT, SRS and the exact path hold up at every width."""
        config = config_for(workers=workers)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
            run = runner.run(4)
        # approxiot: stratified estimate within the usual envelope.
        assert run.mean_approxiot_loss < 10.0
        # srs: Horvitz-Thompson over the union of per-shard coin flips.
        assert run.mean_srs_loss < 20.0
        # native/exact: positive ground truth, sane sampled fraction.
        for window in run.windows:
            assert window.exact_sum > 0
            assert 0 < window.items_sampled < window.items_emitted

    def test_shard_widths_sample_differently_but_agree(self):
        estimates = {}
        for workers in (2, 3):
            with ShardedEngineRunner(
                config_for(workers=workers), SCHEDULE, GENS
            ) as runner:
                estimates[workers] = runner.run(3).windows[0].approx_sum.value
        # Different shard seeds -> different samples...
        assert estimates[2] != estimates[3]
        # ...but both unbiased estimates of the same workload.
        assert estimates[2] == pytest.approx(estimates[3], rel=0.2)


class TestFacadeAndValidation:
    def test_statistical_runner_dispatches_to_sharded_engine(self):
        with StatisticalRunner(
            config_for(workers=2), SCHEDULE, GENS
        ) as runner:
            assert isinstance(runner.engine, ShardedEngineRunner)
            assert runner.engine.workers == 2
            run = runner.run(3)
        assert run.mean_approxiot_loss < 10.0

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            config_for(workers=0)

    def test_empty_run_raises(self):
        silent = RateSchedule("silent", {"A": 0.0, "B": 0.0})
        config = config_for(workers=2)
        with ShardedEngineRunner(config, silent, GENS) as runner:
            with pytest.raises(PipelineError):
                runner.run(2)

    def test_close_is_idempotent(self):
        runner = ShardedEngineRunner(config_for(workers=2), SCHEDULE, GENS)
        runner.run(1)
        runner.close()
        runner.close()


class TestShardFailure:
    def test_failed_round_reaps_shards_and_refuses_reuse(self):
        """With recovery disabled a dead shard surfaces as
        PipelineError and poisons the runner — no raw pipe errors, no
        silent restart from window 0."""
        runner = ShardedEngineRunner(
            replace(config_for(workers=2), max_shard_restarts=0),
            SCHEDULE, GENS,
        )
        try:
            runner.run(1)
            for shard in runner._ensure_shards()[:-1]:  # process shards
                shard._process.terminate()
                shard._process.join(timeout=5.0)
            with pytest.raises(PipelineError):
                runner.run(1)
            with pytest.raises(PipelineError, match="fresh runner"):
                runner.run(1)
        finally:
            runner.close()

    def test_default_supervision_recovers_terminated_shards(self):
        """Under the default restart budget the same external kill is
        recovered transparently — and bit-identically."""
        with ShardedEngineRunner(
            config_for(workers=3), SCHEDULE, GENS
        ) as healthy:
            expected = [outcome_tuple(w) for w in healthy.run(2).windows]
        runner = ShardedEngineRunner(config_for(workers=3), SCHEDULE, GENS)
        try:
            first = [outcome_tuple(w) for w in runner.run(1).windows]
            for shard in runner._ensure_shards()[:-1]:  # process shards
                shard._process.terminate()
                shard._process.join(timeout=5.0)
            second = [outcome_tuple(w) for w in runner.run(1).windows]
            assert first + second == expected
            assert runner.ipc_stats.restarts == 2
        finally:
            runner.close()


class TestOneEmissionTimePerBatch:
    """Sources stamp one emission time per batch and nothing on the
    statistical path spreads it, so no root Theta batch carries a
    per-record column and the shard codec ships 9 bytes of emission
    time per batch instead of 8 per record."""

    @pytest.fixture
    def theta_batches(self, monkeypatch):
        seen = []
        add = ThetaStore.add

        def counting_add(store, batch):
            seen.append(batch)
            add(store, batch)

        monkeypatch.setattr(ThetaStore, "add", counting_add)
        return seen

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_root_theta_batch_holds_a_per_record_stamp(
        self, theta_batches, workers
    ):
        config = config_for(workers=workers)
        if workers == 1:
            pipeline = build_pipeline(config, SCHEDULE, GENS)
            EngineRunner(pipeline, InProcessTransport()).run(3)
        else:
            with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
                runner.run(3)
        per_record = [
            batch for batch in theta_batches
            if not isinstance(batch.items.timestamps, float)
        ]
        assert theta_batches and per_record == []

    def test_theta_bytes_per_window_are_pinned(self):
        config = config_for(workers=2)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
            outcome = runner.run(3)
            stats = runner.ipc_stats
        assert [w.items_sampled for w in outcome.windows] == [192] * 3
        # Only shard 0 is a process: 4 batches (4 strata) of its 96
        # sampled records cross the codec, while the coordinator's own
        # shard hands its half over unencoded; a per-record stamp
        # column would add 8 * 96 - 9 * 4 = 732 B.
        assert stats.theta_bytes_per_window == 972.0
