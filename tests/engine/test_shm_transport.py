"""Shared-memory shard transport: parity, fallback, lifecycle.

The zero-copy transport's contract (:mod:`repro.engine.shm`):

* a run on the shm transport is bit-for-bit the pipe-transport run and
  the inline run at fixed (seed, workers, scenario, controller),
  static and adaptive;
* ``"shm"``/``"auto"`` degrade to the pipe codec on spawn hosts and on
  hosts without usable shared memory — bit-identically;
* a frame that outgrows the ring falls back to the pipe codec for that
  slot (counted, never wrong);
* no shared-memory segment survives :meth:`ShardedEngineRunner.close`,
  including after a mid-run shard failure;
* the descriptors-only claim is measurable: the shm transport moves an
  order of magnitude fewer bytes through the Pipe per window.
"""

import multiprocessing
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

#: The full zero-copy path needs fork (segments engage only under it)
#: and a host that can actually map POSIX shared memory.
shm_capable = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not shm.shm_available(),
    reason="host lacks fork or usable shared memory",
)


def config_for(workers=2, transport="auto", seed=13,
               fraction=0.2, controller="static"):
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=1.0,
        seed=seed,
        backend="python",
        workers=workers,
        shard_transport=transport,
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
    def test_pipe_is_always_honored(self):
        assert shm.resolve_shard_transport("pipe", "fork") == "pipe"
        assert shm.resolve_shard_transport("pipe", "spawn") == "pipe"

    def test_spawn_degrades_to_pipe(self):
        assert shm.resolve_shard_transport("shm", "spawn") == "pipe"
        assert shm.resolve_shard_transport("auto", "spawn") == "pipe"

    @shm_capable
    def test_fork_with_shared_memory_resolves_to_shm(self):
        assert shm.resolve_shard_transport("shm", "fork") == "shm"
        assert shm.resolve_shard_transport("auto", "fork") == "shm"

    def test_unavailable_shared_memory_degrades_to_pipe(self, monkeypatch):
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        assert shm.resolve_shard_transport("shm", "fork") == "pipe"
        assert shm.resolve_shard_transport("auto", "fork") == "pipe"

    def test_config_rejects_unknown_shard_transport(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="shard_transport"):
            PipelineConfig(shard_transport="carrier-pigeon")

    def test_inline_execution_stays_on_the_pipe_path(self):
        with ShardedEngineRunner(
            config_for(transport="shm"), SCHEDULE, GENS, inline=True
        ) as runner:
            assert runner.shard_transport == "pipe"
            assert runner.shm_segment_names == []


@shm_capable
class TestBitParity:
    def test_shm_matches_pipe_and_inline_bitwise(self):
        shm_out, shm_stats, transport = run_outcomes(
            config_for(transport="shm")
        )
        pipe_out, _, _ = run_outcomes(config_for(transport="pipe"))
        inline_out, _, _ = run_outcomes(
            config_for(transport="shm"), inline=True
        )
        assert transport == "shm"
        assert shm_out == pipe_out == inline_out
        assert shm_stats.ring_overflows == 0

    def test_adaptive_broadcast_rides_the_ring_bit_identically(self):
        shm_out, shm_stats, _ = run_outcomes(
            config_for(transport="shm", controller="variance_aware"),
            windows=4,
        )
        pipe_out, pipe_stats, _ = run_outcomes(
            config_for(transport="pipe", controller="variance_aware"),
            windows=4,
        )
        assert shm_out == pipe_out
        # Window 1's merged observation is broadcast with window 2's
        # request — at least one frame must have ridden the ctrl ring.
        assert shm_stats.ring_broadcasts > 0
        assert pipe_stats.ring_broadcasts == 0

    def test_spawn_start_method_degrades_bit_identically(self, monkeypatch):
        fork_out, _, _ = run_outcomes(config_for(transport="auto"))
        monkeypatch.setattr(
            sharding,
            "_mp_context",
            lambda: (multiprocessing.get_context("spawn"), "spawn"),
        )
        spawn_out, _, transport = run_outcomes(config_for(transport="auto"))
        assert transport == "pipe"
        assert spawn_out == fork_out

    def test_unavailable_host_degrades_bit_identically(self, monkeypatch):
        shm_out, _, _ = run_outcomes(config_for(transport="shm"))
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        degraded_out, _, transport = run_outcomes(config_for(transport="shm"))
        assert transport == "pipe"
        assert degraded_out == shm_out

    def test_ring_overflow_falls_back_per_slot_bit_identically(self):
        # A 64-byte ring cannot hold any Theta frame: every slot must
        # take the pipe-codec fallback, with identical results.
        tiny_out, tiny_stats, transport = run_outcomes(
            config_for(transport="shm"), ring_bytes=64
        )
        pipe_out, _, _ = run_outcomes(config_for(transport="pipe"))
        assert transport == "shm"
        assert tiny_out == pipe_out
        assert tiny_stats.ring_overflows > 0


@shm_capable
class TestAccounting:
    def test_descriptors_cut_pipe_bytes_by_an_order_of_magnitude(self):
        _, shm_stats, _ = run_outcomes(config_for(transport="shm"))
        _, pipe_stats, _ = run_outcomes(config_for(transport="pipe"))
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
        with StatisticalRunner(
            config_for(transport="shm"), SCHEDULE, GENS
        ) as runner:
            runner.run(2)
            stats = runner.engine.ipc_stats
        assert stats.transport == "shm"
        assert stats.windows == 2
        assert stats.theta_bytes_encoded > stats.bytes_through_pipe


@shm_capable
class TestLifecycle:
    def assert_unlinked(self, names):
        assert names  # the run must actually have created segments
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_unlinks_every_segment(self):
        runner = ShardedEngineRunner(
            config_for(workers=4, transport="shm"), SCHEDULE, GENS
        )
        try:
            runner.run(1)
            names = runner.shm_segment_names
            assert len(names) == 4
        finally:
            runner.close()
        self.assert_unlinked(names)

    def test_mid_run_shard_failure_unlinks_every_segment(self):
        runner = ShardedEngineRunner(
            config_for(transport="shm").with_max_shard_restarts(0),
            SCHEDULE, GENS,
        )
        try:
            runner.run(1)
            names = runner.shm_segment_names
            for shard in runner._ensure_shards():
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
        runner = ShardedEngineRunner(
            config_for(transport="shm"), SCHEDULE, GENS
        )
        try:
            runner.run(1)
            before = runner.shm_segment_names
            for shard in runner._ensure_shards():
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


@shm_capable
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
