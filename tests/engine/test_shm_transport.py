"""Shared-memory shard transport: parity, fallback, lifecycle.

The zero-copy transport's contract (:mod:`repro.engine.shm`):

* the code picks the transport — shm under fork with usable shared
  memory, the pipe codec otherwise — and no setting overrides it;
* a run on the shm transport is bit-for-bit the pipe-transport run and
  the inline run at fixed (seed, workers, scenario, controller),
  static and adaptive (the pipe leg runs under ``pipe_only``, the
  route a host without usable shared memory takes);
* spawn hosts and hosts without usable shared memory degrade to the
  pipe codec — bit-identically;
* a frame that outgrows the ring falls back to the pipe codec for that
  slot (counted, never wrong);
* no shared-memory segment survives :meth:`ShardedEngineRunner.close`,
  including after a mid-run shard failure;
* the descriptors-only claim is measurable: the shm transport moves an
  order of magnitude fewer bytes through the Pipe per window.
"""

import multiprocessing
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

import repro.engine.sharding as sharding
from repro.engine import shm
from repro.engine.sharding import ShardedEngineRunner
from repro.errors import PipelineError
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "shm-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)


def config_for(workers=2, seed=13, fraction=0.2, controller="static"):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        workers=workers,
        budget_controller=controller,
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


def run_outcomes(config, windows=3, **runner_kwargs):
    with ShardedEngineRunner(
        config, SCHEDULE, GENS, **runner_kwargs
    ) as runner:
        run = runner.run(windows)
        stats = runner.ipc_stats
        transport = runner.shard_transport
    return [outcome_tuple(w) for w in run.windows], stats, transport


class TestTransportResolution:
    def test_spawn_degrades_to_pipe(self):
        assert shm.resolve_shard_transport("spawn") == "pipe"

    @pytest.mark.usefixtures("needs_shm")
    def test_fork_with_shared_memory_resolves_to_shm(self):
        assert shm.resolve_shard_transport("fork") == "shm"

    @pytest.mark.usefixtures("pipe_only")
    def test_unavailable_shared_memory_degrades_to_pipe(self):
        assert shm.resolve_shard_transport("fork") == "pipe"

    def test_inline_execution_stays_on_the_pipe_path(self):
        with ShardedEngineRunner(
            config_for(), SCHEDULE, GENS, inline=True
        ) as runner:
            assert runner.shard_transport == "pipe"
            assert runner.shm_segment_names == []


@pytest.mark.usefixtures("needs_shm")
class TestBitParity:
    def test_shm_matches_pipe_and_inline_bitwise(self, request):
        shm_out, shm_stats, transport = run_outcomes(config_for())
        inline_out, _, _ = run_outcomes(config_for(), inline=True)
        request.getfixturevalue("pipe_only")
        pipe_out, _, pipe_transport = run_outcomes(config_for())
        assert (transport, pipe_transport) == ("shm", "pipe")
        assert shm_out == pipe_out == inline_out
        assert shm_stats.ring_overflows == 0

    def test_adaptive_broadcast_rides_the_ring_bit_identically(self, request):
        config = config_for(controller="variance_aware")
        shm_out, shm_stats, _ = run_outcomes(config, windows=4)
        request.getfixturevalue("pipe_only")
        pipe_out, pipe_stats, _ = run_outcomes(config, windows=4)
        assert shm_out == pipe_out
        # Window 1's merged observation is broadcast with window 2's
        # request — at least one frame must have ridden the ctrl ring.
        assert shm_stats.ring_broadcasts > 0
        assert pipe_stats.ring_broadcasts == 0

    def test_spawn_start_method_degrades_bit_identically(self, monkeypatch):
        fork_out, _, _ = run_outcomes(config_for())
        monkeypatch.setattr(
            sharding,
            "_mp_context",
            lambda: (multiprocessing.get_context("spawn"), "spawn"),
        )
        spawn_out, _, transport = run_outcomes(config_for())
        assert transport == "pipe"
        assert spawn_out == fork_out

    def test_unavailable_host_degrades_bit_identically(self, request):
        shm_out, _, _ = run_outcomes(config_for())
        request.getfixturevalue("pipe_only")
        with ShardedEngineRunner(config_for(), SCHEDULE, GENS) as runner:
            degraded = [outcome_tuple(w) for w in runner.run(3).windows]
            # No segment is ever created on the degraded route.
            assert runner.shm_segment_names == []
            assert runner.ipc_stats.transport == "pipe"
        assert degraded == shm_out

    def test_ring_overflow_falls_back_per_slot_bit_identically(self, request):
        # A 64-byte ring cannot hold any Theta frame: every slot must
        # take the pipe-codec fallback, with identical results.
        tiny_out, tiny_stats, transport = run_outcomes(
            config_for(), ring_bytes=64
        )
        request.getfixturevalue("pipe_only")
        pipe_out, _, _ = run_outcomes(config_for())
        assert transport == "shm"
        assert tiny_out == pipe_out
        assert tiny_stats.ring_overflows > 0


@pytest.mark.usefixtures("needs_shm")
class TestAccounting:
    def test_descriptors_cut_pipe_bytes_by_an_order_of_magnitude(
        self, request
    ):
        _, shm_stats, _ = run_outcomes(config_for())
        request.getfixturevalue("pipe_only")
        _, pipe_stats, _ = run_outcomes(config_for())
        # Same run, same payload volume...
        assert shm_stats.theta_bytes_encoded == pipe_stats.theta_bytes_encoded
        assert pipe_stats.bytes_through_pipe == pipe_stats.theta_bytes_encoded
        # ...but only descriptors crossed the Pipe on shm.
        assert (
            pipe_stats.bytes_through_pipe
            >= 10.0 * shm_stats.bytes_through_pipe
        )
        assert shm_stats.windows == pipe_stats.windows == 3
        assert shm_stats.pipe_bytes_per_window > 0
        assert shm_stats.serde_seconds > 0

    def test_facade_surfaces_the_ipc_stats(self):
        with StatisticalRunner(config_for(), SCHEDULE, GENS) as runner:
            runner.run(2)
            stats = runner.engine.ipc_stats
        assert stats.transport == "shm"
        assert stats.windows == 2
        assert stats.theta_bytes_encoded > stats.bytes_through_pipe


@pytest.mark.usefixtures("needs_shm")
class TestLifecycle:
    def assert_unlinked(self, names):
        assert names  # the run must actually have created segments
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_unlinks_every_segment(self):
        runner = ShardedEngineRunner(
            config_for(workers=4), SCHEDULE, GENS
        )
        try:
            runner.run(1)
            names = runner.shm_segment_names
            assert len(names) == 3  # one per process shard
        finally:
            runner.close()
        self.assert_unlinked(names)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_coordinator_runs_the_last_shard(self, workers):
        """N shards are N - 1 shard processes plus the coordinator: only
        the processes get a segment, and only their Theta is encoded."""
        with ShardedEngineRunner(
            config_for(workers=workers), SCHEDULE, GENS
        ) as runner:
            runner.run(2)
            children = sorted(
                child.name
                for child in multiprocessing.active_children()
                if child.name.startswith("repro-shard-")
            )
            assert children == [
                f"repro-shard-{index}" for index in range(workers - 1)
            ]
            assert len(runner.shm_segment_names) == workers - 1
        _, inline_stats, _ = run_outcomes(
            config_for(workers=workers), windows=2, inline=True
        )
        assert inline_stats.windows == 2
        assert inline_stats.theta_bytes_encoded == 0
        assert inline_stats.bytes_through_pipe == 0

    def test_mid_run_shard_failure_unlinks_every_segment(self):
        runner = ShardedEngineRunner(
            replace(config_for(), max_shard_restarts=0),
            SCHEDULE, GENS,
        )
        try:
            runner.run(1)
            names = runner.shm_segment_names
            for shard in runner._ensure_shards()[:-1]:  # process shards
                shard._process.terminate()
                shard._process.join(timeout=5.0)
            with pytest.raises(PipelineError):
                runner.run(1)
        finally:
            runner.close()
        self.assert_unlinked(names)

    def test_recovery_unlinks_the_dead_shards_segments_too(self):
        """Respawn replaces segments; neither the dead shard's old
        segment nor the replacement's survives close()."""
        runner = ShardedEngineRunner(config_for(workers=3), SCHEDULE, GENS)
        try:
            runner.run(1)
            before = runner.shm_segment_names
            for shard in runner._ensure_shards()[:-1]:  # process shards
                shard._process.terminate()
                shard._process.join(timeout=5.0)
            runner.run(1)
            after = runner.shm_segment_names
            assert runner.ipc_stats.restarts == 2
            assert set(before).isdisjoint(after)
            self.assert_unlinked(before)
        finally:
            runner.close()
        self.assert_unlinked(after)


@pytest.mark.usefixtures("needs_shm")
class TestSegmentProtocol:
    def test_payload_frame_round_trip(self):
        segment = shm.ShardSegment.create(ring_bytes=256, ctrl_bytes=64)
        try:
            segment.begin_round(7)
            frame = segment.write_frame([b"abc", b"defg"], 7)
            assert frame == (7, 0, 7)
            view = segment.read_frame(frame)
            assert bytes(view) == b"abcdefg"
            view.release()
        finally:
            segment.release()

    def test_overflowing_frame_returns_none(self):
        segment = shm.ShardSegment.create(ring_bytes=8, ctrl_bytes=64)
        try:
            segment.begin_round(1)
            assert segment.write_frame([b"x" * 9], 9) is None
            assert segment.write_frame([b"x" * 8], 8) == (1, 0, 8)
            assert segment.write_frame([b"y"], 1) is None  # ring is full
        finally:
            segment.release()

    def test_stale_descriptor_fails_loudly(self):
        segment = shm.ShardSegment.create(ring_bytes=256, ctrl_bytes=64)
        try:
            segment.begin_round(1)
            frame = segment.write_frame([b"abc"], 3)
            segment.begin_round(2)
            with pytest.raises(PipelineError, match="desynchronized"):
                segment.read_frame(frame)
        finally:
            segment.release()

    def test_ctrl_stash_round_trip_and_overflow(self):
        segment = shm.ShardSegment.create(ring_bytes=64, ctrl_bytes=64)
        try:
            segment.begin_round(3)
            frame = segment.stash({"budget": 1200})
            assert shm.is_ctrl_frame(frame)
            assert segment.unstash(frame) == {"budget": 1200}
            assert segment.stash("x" * 4096) is None  # region too small
        finally:
            segment.release()

    def test_release_is_idempotent_and_unlinks(self):
        segment = shm.ShardSegment.create()
        name = segment.name
        segment.release()
        segment.release()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
