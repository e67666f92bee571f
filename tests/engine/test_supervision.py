"""Shard supervision: watchdog, respawn-and-replay, degraded merges.

The supervisor's contract (:mod:`repro.engine.sharding`, §"Supervision"):

* a faulted run — a shard SIGKILLed mid-round, raising, hanging, or
  handing back a corrupted frame — recovers within the restart budget
  and produces **bit-identical** results to the unfaulted run, on both
  shard paths (the ``shard_path`` fixture), static and adaptive;
* recovery is deterministic respawn-and-replay: the replacement shard
  is rebuilt from the same :class:`ShardPlan` and fast-forwarded
  through every completed window (adaptive runs rebroadcast the
  recorded observation tape), so no estimator state is invented;
* hangs are detected by the watchdog within ``shard_timeout`` — a run
  with a hung shard never blocks indefinitely;
* past the restart budget, ``on_shard_loss="abort"`` fails loudly and
  poisons the runner, while ``"degrade"`` continues on the survivors
  with honest accounting: the lost shard's expected volume lands in
  ``items_dropped`` and every affected window reports ``shards_lost``;
* supervision bookkeeping is visible: restarts/timeouts/replayed
  windows in :class:`ShardIpcStats`, per-window restart deltas in the
  scenario trace.
"""

import time
from dataclasses import replace

import pytest

from repro.engine.faults import FaultPlan
from repro.engine.sharding import ShardedEngineRunner
from repro.errors import PipelineError
from repro.scenarios import get_scenario
from repro.system.config import MAX_SHARD_TIMEOUT, PipelineConfig
from repro.system.scenarios import ScenarioRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "supervision-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)
#: Per-shard expected window volume at this schedule with two workers:
#: 960 items/s split evenly, 1 s windows.
SHARD_WINDOW_ITEMS = 480


def config_for(workers=2, seed=13, fraction=0.2, controller="static",
               faults=(), timeout=None, restarts=2, on_loss="abort"):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        backend="python",
        workers=workers,
        budget_controller=controller,
        shard_timeout=timeout,
        max_shard_restarts=restarts,
        on_shard_loss=on_loss,
        fault_plan=FaultPlan.parse(faults) if faults else None,
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


def run_outcomes(config, windows=3):
    """Run ``windows`` and return (outcome tuples, ipc stats)."""
    with ShardedEngineRunner(
        config, SCHEDULE, GENS, backoff_seconds=0.01
    ) as runner:
        run = runner.run(windows)
        stats = runner.ipc_stats
    return [outcome_tuple(w) for w in run.windows], stats


class TestRecoveryBitParity:
    """The SIGKILL satellite: a crash fault is ``os.kill(getpid(),
    SIGKILL)`` fired mid-round inside the shard — recovery must be
    invisible in the results on every (shard path, controller)."""

    @pytest.mark.parametrize("controller", ["static", "variance_aware"])
    def test_sigkill_recovery_is_bit_identical(self, shard_path, controller):
        expected, _ = run_outcomes(config_for(controller=controller))
        faulted, stats = run_outcomes(
            config_for(controller=controller, faults=["crash@0:1"])
        )
        assert faulted == expected
        assert stats.restarts == 1
        assert stats.transport == shard_path

    @pytest.mark.parametrize("kind", ["raise", "corrupt-descriptor"])
    def test_soft_faults_recover_bit_identically(self, shard_path, kind):
        expected, _ = run_outcomes(config_for())
        faulted, stats = run_outcomes(config_for(faults=[f"{kind}@1:1"]))
        assert faulted == expected
        assert stats.restarts == 1
        assert stats.transport == shard_path

    @pytest.mark.parametrize("target", ["crash@0:0", "crash@1:2",
                                        "crash@2:3"])
    def test_any_shard_any_window_recovers(self, target):
        expected, _ = run_outcomes(config_for(workers=3), windows=4)
        faulted, stats = run_outcomes(
            config_for(workers=3, faults=[target]), windows=4
        )
        assert faulted == expected
        assert stats.restarts == 1

    def test_seeded_chaos_plan_recovers(self):
        expected, _ = run_outcomes(config_for(), windows=4)
        plan = FaultPlan.seeded(
            99, shards=2, windows=4, count=2, kinds=("crash", "raise")
        )
        faulted, stats = run_outcomes(
            replace(config_for(), fault_plan=plan), windows=4
        )
        assert faulted == expected
        assert stats.restarts == 2


class TestReplay:
    def test_static_replay_fast_forwards_completed_windows(self):
        """A crash after two committed windows replays exactly those
        two into the replacement before the failed round reruns."""
        config = config_for(faults=["crash@0:2"])
        with ShardedEngineRunner(
            config_for(), SCHEDULE, GENS
        ) as healthy:
            expected = [outcome_tuple(w) for w in healthy.run(4).windows]
        with ShardedEngineRunner(
            config, SCHEDULE, GENS, backoff_seconds=0.01
        ) as runner:
            first = [outcome_tuple(w) for w in runner.run(2).windows]
            second = [outcome_tuple(w) for w in runner.run(2).windows]
            stats = runner.ipc_stats
        assert first + second == expected
        assert stats.restarts == 1
        assert stats.replayed_windows == 2

    def test_adaptive_replay_rebroadcasts_the_observation_tape(self):
        """Adaptive recovery must replay budget observations, not just
        windows — otherwise the replacement's controller diverges."""
        base = dict(controller="variance_aware")
        expected, _ = run_outcomes(config_for(**base), windows=4)
        faulted, stats = run_outcomes(
            config_for(**base, faults=["crash@0:2"]), windows=4
        )
        assert faulted == expected
        assert stats.restarts == 1
        assert stats.replayed_windows == 2


class TestWatchdog:
    def test_hung_shard_is_detected_and_replaced(self):
        """A hang fault sleeps forever inside the shard; the watchdog
        must cut it loose within the deadline and the run must both
        terminate promptly and stay bit-identical."""
        expected, _ = run_outcomes(config_for(timeout=0.75), windows=2)
        start = time.monotonic()
        faulted, stats = run_outcomes(
            config_for(timeout=0.75, faults=["hang@0:0"]), windows=2
        )
        elapsed = time.monotonic() - start
        assert faulted == expected
        assert stats.timeouts == 1
        assert stats.restarts == 1
        assert elapsed < 30.0, f"watchdog recovery took {elapsed:.1f}s"

    def test_round_deadline_is_clamped_to_what_poll_accepts(self):
        """A per-slot deadline times a many-slot round can pass the
        ~24.8 days ``Connection.poll`` accepts; that means "forever",
        so the round waits the longest it can instead of overflowing."""
        config = config_for(timeout=1e6)
        with ShardedEngineRunner(config, SCHEDULE, GENS) as runner:
            assert runner._round_timeout(3) == MAX_SHARD_TIMEOUT
            long_deadline = [outcome_tuple(w) for w in runner.run(3).windows]
        expected, _ = run_outcomes(config_for())
        assert long_deadline == expected

    def test_timeout_error_is_diagnosable(self):
        """With no restart budget the watchdog's verdict surfaces as-is."""
        config = config_for(timeout=0.5, restarts=0, faults=["hang@1:0"])
        with ShardedEngineRunner(
            config, SCHEDULE, GENS, backoff_seconds=0.01
        ) as runner:
            with pytest.raises(PipelineError, match="timeout"):
                runner.run(1)


class TestShardLossPolicies:
    def test_abort_is_loud_and_poisons_the_runner(self):
        config = config_for(restarts=0, faults=["crash@0:0"])
        runner = ShardedEngineRunner(
            config, SCHEDULE, GENS, backoff_seconds=0.01
        )
        try:
            with pytest.raises(PipelineError, match="on_shard_loss"):
                runner.run(1)
            with pytest.raises(PipelineError, match="fresh runner"):
                runner.run(1)
        finally:
            runner.close()

    def test_degrade_continues_with_honest_accounting(self):
        """Survivor windows carry the loss: the dead shard's expected
        volume lands in items_dropped and shards_lost says how many
        shards the merge is missing."""
        config = config_for(restarts=0, on_loss="degrade",
                            faults=["crash@0:1"])
        with ShardedEngineRunner(
            config, SCHEDULE, GENS, backoff_seconds=0.01
        ) as runner:
            healthy = runner.run(1).windows[0]
            degraded = runner.run(2).windows
        assert healthy.shards_lost == 0
        assert healthy.items_dropped == 0
        for window in degraded:
            assert window.shards_lost == 1
            assert window.items_dropped == SHARD_WINDOW_ITEMS
            # The merge really is survivors-only, with a live bound.
            assert window.items_emitted < healthy.items_emitted
            assert window.approx_sum.error > 0
            assert window.items_sampled > 0

    def test_degrade_with_every_shard_lost_raises(self):
        config = config_for(restarts=0, on_loss="degrade",
                            faults=["crash@0:0", "crash@1:0"])
        with ShardedEngineRunner(
            config, SCHEDULE, GENS, backoff_seconds=0.01
        ) as runner:
            with pytest.raises(PipelineError, match="no shards survive"):
                runner.run(1)

    def test_restart_budget_is_per_shard_not_global(self):
        """Two different shards each get the full budget: two faults on
        two shards recover even with max_shard_restarts=1."""
        expected, _ = run_outcomes(config_for(), windows=3)
        faulted, stats = run_outcomes(
            config_for(restarts=1, faults=["crash@0:1", "raise@1:2"]),
            windows=3,
        )
        assert faulted == expected
        assert stats.restarts == 2


class TestShardLifecycle:
    def test_shard_close_and_reap_are_idempotent(self):
        """The double-close satellite: close() and reap() on a live or
        already-dead shard must never raise."""
        runner = ShardedEngineRunner(config_for(), SCHEDULE, GENS)
        try:
            runner.run(1)
            shard = runner._ensure_shards()[0]
            shard.close()
            shard.close()
            shard.reap()
        finally:
            runner.close()
        runner.close()

    def test_reap_kills_without_handshake(self):
        """reap() is for misbehaving shards: no close handshake, the
        process is just terminated and the pipe/segment torn down."""
        runner = ShardedEngineRunner(config_for(), SCHEDULE, GENS)
        try:
            runner.run(1)
            shard = runner._ensure_shards()[1]
            process = shard._process
            shard.reap()
            assert not process.is_alive()
            shard.reap()
        finally:
            runner.close()


class TestScenarioTrace:
    def test_restarts_surface_in_the_faulted_window_row(self):
        scenario = get_scenario("steady")
        with ScenarioRunner(
            config_for(), SCHEDULE, GENS, scenario
        ) as healthy_runner:
            healthy = healthy_runner.run(4)
        with ScenarioRunner(
            config_for(faults=["raise@0:2"]), SCHEDULE, GENS, scenario
        ) as runner:
            outcome = runner.run(4)
        assert [w.shard_restarts for w in outcome.windows] == [0, 0, 1, 0]
        assert all(w.shards_lost == 0 for w in outcome.windows)
        # Recovery is invisible in the quality metrics themselves.
        assert [
            (w.items_emitted, w.approx_sum) for w in outcome.windows
        ] == [(w.items_emitted, w.approx_sum) for w in healthy.windows]
        report = outcome.report()
        assert "restarts" in report and "lost" in report
