"""Sharded multi-core execution: process-parallel worker shards (§III-E).

The paper argues a sub-stream can be handled by ``w`` coordination-free
workers: each samples an equal portion of the items with a
proportionally smaller reservoir, and the per-worker ``(W_out, I)``
pairs are simply concatenated upstream — Eq. 8 holds per worker, hence
for the union. This module is the library's one model of that: the
windowed engine loop runs as ``N`` shards at once, each over an equal
share of every sub-stream, and the root merges per-shard Theta state
before estimating. ``N`` shards are ``N - 1`` forked processes plus the
coordinator, which runs the last shard itself while the others compute
(so ``workers=1`` forks nothing). ``ShardedEngineRunner(...,
inline=True)`` runs every shard one after another in the calling
process, which is the in-process form of §III-E (bit-identical to the
process form).

How a sharded run decomposes:

* :func:`plan_shards` splits the rate schedule into ``N`` equal
  per-shard schedules (``RateSchedule.split``) and derives one shard
  seed per worker from the run seed, so a fixed ``(seed, workers)``
  pair fully determines every shard's entropy. A one-worker plan *is*
  the original run — same seed, same schedule — which is what makes
  ``workers=1`` sharded execution bit-for-bit the in-process engine.
* Each shard builds its own full :class:`~repro.engine.pipeline.Pipeline`
  (every tree node, budgets sized from the shard's share of the rates)
  and drives an :class:`~repro.engine.runner.EngineRunner` over the
  same window schedule. Shards never communicate: the §III-E
  assumption is exactly that workers need no coordination.
* Per window, a process shard ships back its window outcome fields
  plus its root Theta contribution encoded with the compact binary
  batch codec
  (:func:`~repro.broker.records.encode_weighted_batches`) — whole
  column buffers cross the process boundary, never a pickle graph of
  per-record objects. *How* the codec frame crosses is the shard
  transport, which the code picks from what it can observe — no user
  setting: on the ``"shm"`` plane (:mod:`repro.engine.shm`; wherever
  shards fork and shared memory is usable) the shard writes the frame
  into its own shared-memory segment and only a ``(sequence, offset,
  length)`` descriptor rides the Pipe — payload bytes never transit
  the pipe — while the ``"pipe"`` plane (everywhere else, and per
  slot for a frame that outgrows the ring) sends the joined frame
  bytes themselves. Both planes decode to identical batches, so a run
  is bit-for-bit the same on either; :attr:`ShardedEngineRunner.ipc_stats`
  accounts encoded bytes, pipe bytes and serde wall time so the
  difference is measurable, not vibes. The coordinator's own shard
  hands its Theta batches to the merge by reference (no codec).
* The parent merges positionally: exact sums, SRS Horvitz-Thompson
  estimates and item counts add across shards; Theta batches
  concatenate in shard order into one
  :class:`~repro.core.estimator.ThetaStore` (weights untouched — Eq. 2
  was applied per shard against per-shard reservoir sizes, and
  rescaling them would break the Eq. 8 count recovery); the root
  estimate with error bounds is computed once over the union.
* Under an adaptive budget controller
  (``config.budget_controller != "static"``) the run goes
  window-by-window: the parent distills each window's *merged* root
  Theta into one :class:`~repro.system.adaptive.WindowObservation` and
  broadcasts it with the next window's request. Every shard feeds the
  same global evidence to its own controller copy, so all shards
  recompute the identical decision — shards still never talk to each
  other, and the codec's bit-exact round trip keeps the broadcast
  observation equal to what an unsharded engine observes locally.

Shard processes are persistent: they spawn on first use, keep their
window clock and rng streams across :meth:`ShardedEngineRunner.run`
calls (so ``run(2); run(3)`` equals ``run(5)``), and exit on
:meth:`~ShardedEngineRunner.close`. The start method prefers ``fork``
(cheap, Linux default) and falls back to ``spawn``; results are
identical under either — and under ``inline=True``, which runs the
shards sequentially in-process for debugging and for parity tests —
because every shard rebuilds its state from the plan alone (each
shard's pipeline runs on its own copy of the caller's generators).

Shard processes are also *supervised*. Each request/collect round runs
under a watchdog (``config.shard_timeout``; a hung shard raises
:class:`~repro.errors.ShardTimeoutError` instead of blocking forever)
and a crashed, hung or corrupt-framed shard is recovered by
**respawn-and-replay**: because a shard is a pure function of its
:class:`ShardPlan` plus the sequence of ``(windows, observations)``
requests it has served, the supervisor can spawn a replacement from
the same plan, fast-forward it through every completed window
(rebroadcasting the recorded per-window observations on adaptive
runs), and retry the failed round — the recovered run is bit-for-bit
identical to an unfaulted one. When a shard exhausts its
``config.max_shard_restarts`` budget the run either aborts loudly
(default) or, under ``on_shard_loss="degrade"``, continues on the
surviving shards with honest accounting (see
:meth:`ShardedEngineRunner` and ``WindowOutcome.shards_lost``). The
deterministic fault-injection harness in :mod:`repro.engine.faults`
exercises every one of these paths. Faults target process shards
``0..N-2`` only: the coordinator's shard cannot fail apart from the
run, so an exception there poisons the runner like any other error in
the caller.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import time
import traceback
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.broker.records import (
    decode_weighted_batches,
    encode_weighted_batches_chunks,
)
from repro.core.estimator import ThetaStore
from repro.engine import faults as fault_injection
from repro.engine import shm
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import (
    EngineRunner,
    RunOutcome,
    WindowOutcome,
    _estimate_window,
)
from repro.engine.transport import InProcessTransport
from repro.errors import ConfigurationError, PipelineError, ShardTimeoutError
from repro.workloads.rates import RateSchedule

if TYPE_CHECKING:
    from repro.scenarios.scenario import Scenario
    from repro.system.config import PipelineConfig
    from repro.workloads.source import ItemGenerator

__all__ = ["ShardIpcStats", "ShardPlan", "ShardedEngineRunner", "plan_shards"]


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """One worker shard's share of a run.

    Attributes:
        index: Shard position (0-based); merge order follows it.
        workers: Total shard count of the plan this shard belongs to.
        seed: The shard's derived seed — drives its pipeline rng and,
            through it, every source rng and sampling decision.
        schedule: The shard's share of the arrival rates (every
            sub-stream at ``rate / workers``).
    """

    index: int
    workers: int
    seed: int
    schedule: RateSchedule


def plan_shards(
    config: "PipelineConfig", schedule: RateSchedule
) -> list[ShardPlan]:
    """Partition a run into ``config.workers`` deterministic shards.

    Shard seeds are drawn from ``random.Random(config.seed)`` in shard
    order, so the full plan is a pure function of ``(seed, workers)``
    — the determinism contract of sharded execution. The single-shard
    plan keeps the run seed itself (not a derived one): a one-worker
    sharded run is *defined* as the in-process run, bit for bit.
    """
    workers = config.workers
    if workers == 1:
        return [ShardPlan(0, 1, config.seed, schedule)]
    seed_rng = random.Random(config.seed)
    seeds = [seed_rng.getrandbits(64) for _ in range(workers)]
    return [
        ShardPlan(index, workers, seeds[index], shard_schedule)
        for index, shard_schedule in enumerate(schedule.split(workers))
    ]


#: One window slot's result as it crosses the process boundary:
#: ``(items_emitted, exact_sum, srs_sum, items_sampled, items_dropped,
#: theta_frame, sample_budget, theta_bytes, encode_seconds)``.
#: ``theta_frame`` carries a process shard's codec-encoded Theta
#: batches — ``None`` for an empty window, the joined frame ``bytes``
#: on the pipe transport (and as the ring-overflow fallback), or a
#: ``(sequence, offset, length)`` shared-memory descriptor on the shm
#: transport, where the frame bytes live in the shard's segment and
#: never transit the pipe; a shard the coordinator runs itself puts
#: the batch list there as it is. ``theta_bytes``/``encode_seconds``
#: are the shard-side serde accounting (frame size and encode wall
#: time; zero unencoded); ``sample_budget`` is the shard root's budget
#: in effect for the slot (the shard's budget controller decision).
#: Plain tuple of primitives + bytes on purpose — the pipe never
#: pickles a record object.
_SlotResult = tuple[
    int, float, float, int, int,
    "bytes | tuple[int, int, int] | list | None", int, int, float,
]


class _ShardState:
    """A shard's private engine, rebuilt identically anywhere it runs.

    ``scenario`` (a :class:`~repro.scenarios.scenario.Scenario`, pure
    data) is bound to the shard's own tree and schedule here: scenario
    state is a pure function of the window index, so every shard
    recomputes the identical timeline with no coordination — churn
    takes the same nodes offline in every shard, rate events scale
    every shard's (already 1/N) rates by the same multipliers.
    """

    def __init__(
        self,
        plan: ShardPlan,
        config: "PipelineConfig",
        generators: "dict[str, ItemGenerator]",
        scenario: "Scenario | None" = None,
        segment: "shm.ShardSegment | None" = None,
        armed_faults: "tuple[fault_injection.FaultSpec, ...]" = (),
    ) -> None:
        #: The shard's shared-memory segment (``None`` on the pipe
        #: transport and in inline execution): Theta frames are written
        #: into it directly and only descriptors cross the pipe.
        self._segment = segment
        #: Injected faults still armed for this shard, keyed by the
        #: absolute window slot they fire at. The supervisor passes a
        #: respawned shard only the faults targeting windows *after*
        #: the recovered round, so replay never re-detonates.
        self._armed_faults = {spec.window: spec for spec in armed_faults}
        #: Absolute window slots this engine has run (replay included) —
        #: the coordinate injected faults are targeted at.
        self._slots_done = 0
        # The child's engine must not re-validate (or re-arm) the fault
        # plan: faults are delivered explicitly via ``armed_faults``.
        shard_config = replace(
            config, seed=plan.seed, workers=1, fault_plan=None
        )
        pipeline = build_pipeline(shard_config, plan.schedule, generators)
        engine = None
        if scenario is not None:
            from repro.scenarios.engine import ScenarioEngine

            engine = ScenarioEngine(scenario, pipeline.tree, plan.schedule)
        # Shards never observe their own (shard-local) Theta: under an
        # adaptive controller the parent merges every shard's root
        # state and broadcasts one global observation per window, so
        # all shards replay the identical controller decision.
        self._runner = EngineRunner(
            pipeline,
            InProcessTransport(),
            scenario=engine,
            observe_locally=False,
        )

    def run_slots(
        self, windows: int, observations: "list | None" = None
    ) -> list[_SlotResult]:
        """Advance the shard through ``windows`` window slots.

        ``observations`` (when given) carries one broadcast
        :class:`~repro.system.adaptive.WindowObservation` (or ``None``
        = hold) per slot, applied to the shard's controller *before*
        the slot runs — the same observe-then-begin ordering the
        in-process engine follows between consecutive windows.
        """
        results: list[_SlotResult] = []
        for slot in range(windows):
            fault = self._armed_faults.pop(self._slots_done, None)
            self._slots_done += 1
            if (
                fault is not None
                and fault.kind != fault_injection.CORRUPT_DESCRIPTOR
            ):
                fault_injection.fire(fault)  # crash/hang never return
            if observations is not None and observations[slot] is not None:
                self._runner.apply_observation(observations[slot])
            window = self._runner.sample_window()
            if window is None:
                # Budget still reported: a mixed slot (this shard idle,
                # others emitting) must sum the live decision exactly.
                pipeline = self._runner.pipeline
                budget = pipeline.budget(pipeline.tree.root.name)
                results.append((0, 0.0, 0.0, 0, 0, None, budget, 0, 0.0))
            else:
                frame, theta_bytes, encode_seconds = self._frame(
                    window.theta.batches, fault
                )
                results.append(
                    (
                        window.items_emitted,
                        window.exact_sum,
                        window.srs_sum,
                        window.theta.sampled_items,
                        window.items_dropped,
                        frame,
                        window.sample_budget,
                        theta_bytes,
                        encode_seconds,
                    )
                )
        return results

    def _frame(self, batches, fault):
        """Encode one slot's Theta for the trip to the coordinator.

        Returns ``(frame, theta_bytes, encode_seconds)``: a shared
        segment descriptor when the frame fits the ring, else the
        joined codec bytes (pipe transport, or ring overflow).
        """
        started = time.perf_counter()
        chunks = encode_weighted_batches_chunks(batches)
        theta_bytes = sum(len(chunk) for chunk in chunks)
        frame: "bytes | tuple[int, int, int] | None" = None
        if self._segment is not None:
            # The zero-copy path: column buffers land in the
            # shared segment, the pipe carries a descriptor.
            frame = self._segment.write_frame(chunks, theta_bytes)
        if frame is None:  # pipe transport, or ring overflow
            frame = b"".join(chunks)
        if fault is not None:  # corrupt-descriptor fault
            frame = fault_injection.corrupt_frame(frame)
        return frame, theta_bytes, time.perf_counter() - started


def _report_error(conn) -> None:
    """Best-effort error send: a vanished parent must not mask cleanup."""
    try:
        conn.send(("error", traceback.format_exc()))
    except (BrokenPipeError, OSError):  # parent already gone
        pass


def _shard_main(
    conn, plan, config, generators, scenario=None, segment_spec=None,
    armed_faults=(),
) -> None:
    """Entry point of one shard process: serve run requests until close.

    ``segment_spec`` (``None`` on the pipe transport) names the
    shared-memory segment the parent created for this shard; the child
    attaches it by name and detaches on exit — the parent side owns the
    unlink. ``armed_faults`` are the injected
    :class:`~repro.engine.faults.FaultSpec`\\ s still live for this
    shard (the supervisor disarms recovered ones before a respawn).

    The serve loop runs under ``try/finally`` so the child always
    detaches its pipe end and segment on the way out — even when the
    error report itself fails because the parent is already gone. (A
    SIGKILLed child never gets here at all; that is fine, because the
    parent side owns the segment unlink.)
    """
    segment = None
    try:
        try:
            if segment_spec is not None:
                segment = shm.ShardSegment.attach(*segment_spec)
            state = _ShardState(
                plan, config, generators, scenario, segment, armed_faults
            )
        except BaseException:  # noqa: BLE001 - must cross the pipe
            _report_error(conn)
            return
        while True:
            try:
                message = conn.recv()
            except EOFError:  # parent vanished without a close handshake
                break
            if message[0] == "close":
                break
            try:
                _tag, windows, observations, sequence = message
                if segment is not None:
                    segment.begin_round(sequence)
                    if observations is not None:
                        # Broadcast observations ride the control region;
                        # oversized ones arrive inline as a fallback.
                        observations = [
                            segment.unstash(entry)
                            if shm.is_ctrl_frame(entry)
                            else entry
                            for entry in observations
                        ]
                conn.send(("ok", state.run_slots(windows, observations)))
            except BaseException:  # noqa: BLE001 - must cross the pipe
                _report_error(conn)
                break
    finally:
        try:
            conn.close()
        finally:
            if segment is not None:
                segment.release()


class _ProcessShard:
    """Parent-side handle to one persistent shard process.

    ``segment`` (``None`` on the pipe transport) is the shard's
    shared-memory segment, created by the parent before the fork: the
    parent stashes broadcast observations into its control region at
    request time, resolves the shard's payload descriptors against it
    at collect time, and unlinks it on :meth:`close` — including after
    a mid-run shard failure, so no segment survives the runner.
    """

    def __init__(
        self, context, plan, config, generators, scenario=None, *,
        segment: "shm.ShardSegment | None" = None,
        armed_faults: "tuple[fault_injection.FaultSpec, ...]" = (),
    ) -> None:
        self.index = plan.index
        self.segment = segment
        self._sequence = 0
        self._closed = False
        self._conn, child = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_main,
            args=(
                child, plan, config, generators, scenario,
                segment.spec if segment is not None else None,
                armed_faults,
            ),
            name=f"repro-shard-{plan.index}",
            daemon=True,
        )
        self._process.start()
        child.close()

    def request(
        self, windows: int, observations: "list | None" = None
    ) -> int:
        """Dispatch one round; returns how many broadcasts rode the ring."""
        self._sequence += 1
        stashed = 0
        if self.segment is not None:
            self.segment.begin_round(self._sequence)
            if observations is not None:
                resolved = []
                for entry in observations:
                    frame = (
                        self.segment.stash(entry)
                        if entry is not None
                        else None
                    )
                    if frame is not None:
                        stashed += 1
                    resolved.append(frame if frame is not None else entry)
                observations = resolved
        try:
            self._conn.send(("run", windows, observations, self._sequence))
        except (BrokenPipeError, OSError):
            raise PipelineError(
                f"worker shard {self.index} is gone (did a previous "
                f"window fail?); create a fresh runner"
            ) from None
        return stashed

    def collect(self, timeout: float | None = None) -> list[_SlotResult]:
        """Receive one round's slot results (raises on a dead shard).

        ``timeout`` (seconds; ``None`` blocks forever) is the watchdog
        deadline: a shard that has neither answered nor died within it
        raises :class:`~repro.errors.ShardTimeoutError` — ``poll``
        also wakes on EOF, so a crashed shard is diagnosed as dead (not
        as hung) no matter the deadline.
        """
        if timeout is not None and not self._conn.poll(timeout):
            raise ShardTimeoutError(
                f"worker shard {self.index} missed its {timeout:.3g}s "
                f"watchdog deadline (hung or stalled)"
            )
        try:
            status, payload = self._conn.recv()
        except EOFError:
            raise PipelineError(
                f"worker shard {self.index} died without a result"
            ) from None
        if status != "ok":
            raise PipelineError(
                f"worker shard {self.index} failed:\n{payload}"
            )
        return payload

    def _reap_process(self, handshake: bool) -> None:
        """Shared teardown: pipe, process (escalating), then segment.

        Escalation order ``join → terminate → kill``: a healthy child
        exits on the close handshake, a wedged one is SIGTERMed, and a
        child that survives even that (blocked in uninterruptible I/O)
        is SIGKILLed rather than abandoned alive as a zombie-to-be.
        """
        if self._closed:
            return
        self._closed = True
        if handshake:
            try:
                self._conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if handshake:
            self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck child
            self._process.kill()
            self._process.join(timeout=5.0)
        if self.segment is not None:
            self.segment.release()
            self.segment = None

    def close(self) -> None:
        """Stop the process and unlink the shard's segment (idempotent)."""
        self._reap_process(handshake=True)

    def reap(self) -> None:
        """Hard teardown of a failed shard: no handshake, straight to
        terminate/kill (a crashed or hung shard cannot answer one)."""
        self._reap_process(handshake=False)


class _InlineShard(_ShardState):
    """A shard the coordinator runs itself, in the calling process.

    §III-E needs no process per shard, so a process-mode run forks
    ``N - 1`` shards and the coordinator computes the last one between
    dispatching the others' requests and collecting their replies;
    ``inline=True`` runs every shard this way, one after another. An
    inline shard's Theta batches go to the merge by reference — no
    codec, no segment, no pipe bytes — which is bit-exact because the
    codec round trip is. It cannot crash apart from the coordinator,
    so it takes no injected faults and is never respawned.
    """

    #: Inline shards have no shared-memory segment.
    segment = None

    def __init__(self, plan, config, generators, scenario=None) -> None:
        super().__init__(plan, config, generators, scenario)
        self.index = plan.index

    def _frame(self, batches, fault):
        """Hand the batches over as they are (nothing is encoded)."""
        return batches, 0, 0.0

    def close(self) -> None:
        """Nothing to stop: the shard lives in the coordinator."""


def _mp_context():
    """The cheapest start method available, as ``(context, name)``.

    Fork where the OS has it (cheap, Linux default), spawn otherwise.
    The name feeds shard-transport resolution: shared memory engages
    only under fork (see :func:`repro.engine.shm.resolve_shard_transport`).
    """
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(method), method


@dataclass
class ShardIpcStats:
    """Per-window IPC accounting for the shard transport.

    Counters cover the Theta payload direction (shard → parent) plus
    the adaptive broadcast direction (parent → shard), accumulated
    across every window slot the runner has merged — so transport wins
    are attributable numbers, not vibes. Only process shards are
    counted: a shard the coordinator runs itself (the last one in
    process mode, every one inline) encodes nothing and sends nothing.

    Attributes:
        transport: The resolved shard transport (``"pipe"``/``"shm"``).
        windows: Window slots merged so far.
        theta_bytes_encoded: Codec frame bytes produced by the process
            shards
            (the payload volume, wherever it physically travelled).
        bytes_through_pipe: Bytes that actually crossed the Pipe for
            Theta payloads — whole frames on the pipe transport,
            pickled descriptors only on the shm transport.
        encode_seconds: Shard-side serde wall time (encode + ring write).
        decode_seconds: Parent-side serde wall time (decode).
        ring_overflows: Slots whose frame outgrew the shared ring and
            fell back to the pipe codec (shm transport only).
        ring_broadcasts: Adaptive observations broadcast through the
            control region instead of the pipe.
        restarts: Shard processes respawned by the supervisor after a
            crash, hang or corrupt frame (0 in a healthy run).
        timeouts: Rounds a shard missed its watchdog deadline
            (``config.shard_timeout``) on — each such miss is treated
            like a crash and drives a restart.
        replayed_windows: Window slots fast-forwarded through on
            respawned shards to rebuild their deterministic state —
            the recovery work amplification, measurable not vibes.
    """

    transport: str
    windows: int = 0
    theta_bytes_encoded: int = 0
    bytes_through_pipe: int = 0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0
    ring_overflows: int = 0
    ring_broadcasts: int = 0
    restarts: int = 0
    timeouts: int = 0
    replayed_windows: int = 0

    @property
    def serde_seconds(self) -> float:
        """Total serde wall time (shard-side encode + parent-side decode)."""
        return self.encode_seconds + self.decode_seconds

    @property
    def theta_bytes_per_window(self) -> float:
        """Mean codec payload bytes per merged window slot."""
        return self.theta_bytes_encoded / self.windows if self.windows else 0.0

    @property
    def pipe_bytes_per_window(self) -> float:
        """Mean bytes through the Pipe per merged window slot."""
        return self.bytes_through_pipe / self.windows if self.windows else 0.0


class ShardedEngineRunner:
    """Drives ``config.workers`` engine shards and merges at the root.

    A drop-in for :class:`~repro.engine.runner.EngineRunner`'s
    ``run``/``run_window`` surface. ``N`` shards are ``N - 1`` shard
    processes plus the coordinator: shards ``0..N-2`` fork, and the
    calling process runs shard ``N-1`` itself between dispatching the
    others' requests and collecting their replies. Shard processes
    start lazily on the first window and persist across calls; call
    :meth:`close` (or use the runner as a context manager) to reap
    them — they are daemons, so an unclosed runner still cannot
    outlive the parent.

    ``inline=True`` executes every shard sequentially in the calling
    process: identical results (the plan alone determines each shard's
    entropy), no parallelism — the debugging and parity-testing mode.

    The runner is also the shard *supervisor* (process shards only;
    a shard the coordinator runs cannot crash apart from it, so a fault
    plan may target shards ``0..N-2`` only, and an exception in the
    coordinator's shard poisons the runner). Per round it
    classifies failures — watchdog timeout, process death, corrupt
    frame — and recovers by respawn-and-replay within
    ``config.max_shard_restarts`` per shard; a shard whose frames
    decoded corrupt is respawned *without* a shared-memory segment
    (degraded to the pipe codec), so a poisoned ring is never trusted
    again. Exhausted budgets follow ``config.on_shard_loss``: abort
    loudly, or degrade onto the surviving shards with per-window loss
    accounting. ``backoff_seconds`` scales the exponential backoff
    between respawn attempts (a test seam; the delay for attempt ``k``
    is ``min(2.0, backoff_seconds * 2**k)``).
    """

    def __init__(
        self,
        config: "PipelineConfig",
        schedule: RateSchedule,
        generators: "dict[str, ItemGenerator]",
        *,
        inline: bool = False,
        scenario: "Scenario | None" = None,
        ring_bytes: int | None = None,
        backoff_seconds: float = 0.05,
    ) -> None:
        self._config = config
        self._plans = plan_shards(config, schedule)
        #: Shards ``0..processes-1`` run as child processes; the rest
        #: (the last one, or all of them inline) run in the coordinator.
        self._processes = 0 if inline else config.workers - 1
        fault_plan: "fault_injection.FaultPlan | None" = config.fault_plan
        if fault_plan is not None and fault_plan:
            if self._processes == 0:
                raise ConfigurationError(
                    "fault injection targets worker shard processes; "
                    "inline and single-worker execution have no process "
                    "to kill — use workers > 1 without inline=True"
                )
            if fault_plan.max_shard() >= self._processes:
                raise ConfigurationError(
                    f"fault plan targets shard {fault_plan.max_shard()}; "
                    f"valid targets are 0..{self._processes - 1}, the "
                    f"shard processes of a {config.workers}-worker run "
                    f"(the coordinator runs shard {config.workers - 1} "
                    f"itself)"
                )
            if fault_plan.needs_watchdog and config.shard_timeout is None:
                raise ConfigurationError(
                    "the fault plan injects a hang, which only the "
                    "watchdog can detect; set config.shard_timeout "
                    "(--shard-timeout)"
                )
        self._ring_bytes = (
            ring_bytes if ring_bytes is not None else shm.DEFAULT_RING_BYTES
        )
        if self._processes == 0:
            # No shard leaves the coordinator: no pipe, no segment.
            self._context = None
            self._shard_transport = "pipe"
        else:
            self._context, start_method = _mp_context()
            self._shard_transport = shm.resolve_shard_transport(start_method)
        self._ipc = ShardIpcStats(transport=self._shard_transport)
        self._schedule = schedule
        self._generators = generators
        self._scenario = scenario
        if scenario is not None:
            # Validate loudly in the parent before any shard spawns: a
            # bad event target must fail here, not inside N child
            # processes. Shards rebuild their own bound engines from
            # their (1/N-rate) schedules.
            from repro.scenarios.engine import ScenarioEngine

            ScenarioEngine(scenario, config.tree, schedule)
        self._shards: "list[_ProcessShard | _InlineShard] | None" = None
        self._windows_run = 0
        self._failed = False
        #: Adaptive runs go window-by-window: the merged-root
        #: observation of window N is broadcast to every shard before
        #: window N+1, persisting across run() calls like shard clocks.
        self._adaptive = config.budget_controller != "static"
        self._pending_observation = None
        # --- supervision state -----------------------------------------
        self._backoff_seconds = backoff_seconds
        #: Respawns consumed per shard (bounded by max_shard_restarts).
        self._restart_counts = [0] * len(self._plans)
        #: First still-armed fault window per shard: respawns receive
        #: only faults at windows >= this, so a recovered round's fault
        #: never re-detonates in the replacement.
        self._armed_from = [0] * len(self._plans)
        #: Shards declared lost under on_shard_loss="degrade"; their
        #: slots are skipped by every later round and accounted in the
        #: merge (items_dropped, shards_lost).
        self._lost: set[int] = set()
        #: Shards degraded to the pipe codec after a corrupt frame —
        #: their replacements never get a shared-memory segment again.
        self._pipe_degraded: set[int] = set()
        #: Steady-state items each shard contributes per window — the
        #: honest stand-in for a lost shard's unobservable emissions.
        self._expected_items = [
            int(round(plan.schedule.total_rate * config.window_seconds))
            for plan in self._plans
        ]
        #: Per-completed-window broadcast observations (adaptive runs
        #: only): the replay tape a respawned shard is fast-forwarded
        #: with. Entry i is what every shard applied before slot i.
        self._observation_log: list = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of worker shards this runner drives."""
        return len(self._plans)

    @property
    def shard_transport(self) -> str:
        """The resolved shard transport (``"pipe"`` or ``"shm"``)."""
        return self._shard_transport

    @property
    def ipc_stats(self) -> ShardIpcStats:
        """A snapshot of the runner's IPC accounting so far."""
        return replace(self._ipc)

    @property
    def shm_segment_names(self) -> list[str]:
        """Names of the live shared-memory segments (empty on pipe)."""
        if self._shards is None:
            return []
        return [
            shard.segment.name
            for shard in self._shards
            if shard.segment is not None
        ]

    def _ensure_shards(self) -> "list[_ProcessShard | _InlineShard]":
        if self._failed:
            raise PipelineError(
                "this sharded runner failed a previous round and its "
                "shard clocks are desynchronized; create a fresh runner"
            )
        if self._shards is None:
            forked = self._plans[: self._processes]
            segments: "list[shm.ShardSegment | None]"
            if self._shard_transport == "shm":
                # One segment per process shard, created before the fork
                # so the child inherits the mapping's name; released on
                # close() (or, worst case, by their finalizers).
                segments = []
                try:
                    for _ in forked:
                        segments.append(
                            shm.ShardSegment.create(
                                ring_bytes=self._ring_bytes
                            )
                        )
                except BaseException:
                    for segment in segments:
                        segment.release()
                    raise
            else:
                segments = [None] * len(forked)
            self._shards = [
                _ProcessShard(
                    self._context, plan, self._config, self._generators,
                    self._scenario, segment=segment,
                    armed_faults=self._armed_faults(plan.index),
                )
                for plan, segment in zip(forked, segments)
            ] + [  # built after the fork: no child inherits its pages
                _InlineShard(
                    plan, self._config, self._generators, self._scenario
                )
                for plan in self._plans[self._processes :]
            ]
        return self._shards

    def _armed_faults(
        self, index: int
    ) -> "tuple[fault_injection.FaultSpec, ...]":
        """The injected faults still live for one shard (window order)."""
        plan: "fault_injection.FaultPlan | None" = self._config.fault_plan
        if plan is None:
            return ()
        start = self._armed_from[index]
        return tuple(
            spec for spec in plan.for_shard(index) if spec.window >= start
        )

    def close(self) -> None:
        """Stop the shard processes (idempotent)."""
        if self._shards is not None:
            for shard in self._shards:
                shard.close()
            self._shards = None

    def __enter__(self) -> "ShardedEngineRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_slots(self, windows: int) -> list[WindowOutcome | None]:
        if self._adaptive:
            # Feedback closes the loop between consecutive windows, so
            # the shards cannot run a whole batch ahead: each window's
            # merged-root observation must reach every shard before
            # the next window samples. One request/collect round per
            # window, the broadcast riding the request.
            return [self._run_adaptive_slot() for _ in range(windows)]
        per_shard = self._run_round(windows, None)
        return [
            self._merge_slot(
                [
                    results[slot]
                    for results in per_shard
                    if results is not None
                ]
            )
            for slot in range(windows)
        ]

    def _run_adaptive_slot(self) -> WindowOutcome | None:
        """One window under feedback: broadcast, run, merge, observe."""
        # Record the broadcast *before* the round: entry i of the log
        # is what every shard applied before slot i, which is exactly
        # the replay tape a respawned shard must be fed.
        self._observation_log.append(self._pending_observation)
        per_shard = self._run_round(1, [self._pending_observation])
        return self._merge_slot(
            [results[0] for results in per_shard if results is not None]
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _round_timeout(self, windows: int) -> float | None:
        """The watchdog deadline for one round (``None`` = no watchdog).

        ``config.shard_timeout`` is *per window slot*; a static round
        batches many slots into one request, so the round deadline
        scales with the request size, up to
        :data:`~repro.system.config.MAX_SHARD_TIMEOUT` (the longest
        wait ``Connection.poll`` accepts).
        """
        if self._config.shard_timeout is None:
            return None
        # Imported here: repro.system's package import loads this module.
        from repro.system.config import MAX_SHARD_TIMEOUT

        return min(
            self._config.shard_timeout * max(1, windows), MAX_SHARD_TIMEOUT
        )

    def _run_round(
        self, windows: int, observations: "list | None"
    ) -> "list[list | None]":
        """One supervised request/collect round across all live shards.

        Every process shard gets its request first; the coordinator
        then runs its own shard while they compute, and collects the
        process shards in plan order. Returns one decoded slot-result
        list per shard, positionally; ``None`` marks a shard lost (this
        round or earlier) under the degrade policy. Process-shard
        failures are classified per shard — watchdog ``"timeout"``,
        process ``"crash"`` (EOF, shard-reported error, failed
        dispatch), ``"corrupt"`` frame (decode failure) — and recovered
        by :meth:`_recover_shard`; surviving shards' results are kept,
        so one bad shard never discards its peers' round. Anything that
        escapes the round (an exception in the coordinator's own shard,
        an aborted shard loss) poisons the runner: every shard is
        reaped and reuse is refused, so a retry fails loudly instead of
        merging skewed state.
        """
        shards = self._ensure_shards()
        timeout = self._round_timeout(windows)
        per_shard: "list[list | None]" = [None] * len(shards)
        failed: dict[int, str] = {}
        processes = shards[: self._processes]
        try:
            for index, shard in enumerate(processes):  # dispatch to all live,
                if index in self._lost:
                    continue
                try:
                    self._ipc.ring_broadcasts += shard.request(
                        windows, observations
                    )
                except PipelineError:
                    failed[index] = "crash"
            for shard in shards[self._processes :]:  # run our own meanwhile,
                per_shard[shard.index] = [
                    (result, result[5])  # Theta batches by reference
                    for result in shard.run_slots(windows, observations)
                ]
            for index, shard in enumerate(processes):  # then sync each.
                if index in self._lost or index in failed:
                    continue
                try:
                    raw = shard.collect(timeout)
                except ShardTimeoutError:
                    self._ipc.timeouts += 1
                    failed[index] = "timeout"
                    continue
                except PipelineError:
                    failed[index] = "crash"
                    continue
                try:
                    # Frames are decoded (copied out of the shared rings)
                    # here, before any next round could reset the ring
                    # cursors underneath the descriptors.
                    per_shard[index] = [
                        self._decode_slot_payload(shard, result)
                        for result in raw
                    ]
                except Exception:  # noqa: BLE001 - any decode failure
                    failed[index] = "corrupt"
            for index in sorted(failed):
                per_shard[index] = self._recover_shard(
                    index, failed[index], windows, observations, timeout
                )
        except BaseException:
            self._failed = True
            self.close()
            raise
        return per_shard

    def _recover_shard(
        self,
        index: int,
        reason: str,
        windows: int,
        observations: "list | None",
        timeout: float | None,
    ) -> "list | None":
        """Respawn-and-replay one failed shard, bounded by the budget.

        Each attempt reaps the dead process, spawns a replacement from
        the same :class:`ShardPlan`, fast-forwards it through every
        completed window (:meth:`_replay` — deterministic, so the
        replacement's state is bit-identical to the lost shard's), and
        re-runs the failed round. Attempts back off exponentially.
        Returns the round's decoded slot results, or ``None`` when the
        budget is exhausted and the degrade policy drops the shard.
        """
        while self._restart_counts[index] < self._config.max_shard_restarts:
            attempt = self._restart_counts[index]
            self._restart_counts[index] += 1
            self._ipc.restarts += 1
            time.sleep(min(2.0, self._backoff_seconds * (2 ** attempt)))
            # Disarm the whole failed round's faults for this shard:
            # the fault already "served" its window, and neither replay
            # nor the retry may re-detonate it.
            self._armed_from[index] = self._windows_run + windows
            if reason == "corrupt":
                # A corrupt frame means the shard's ring (or its codec
                # stream) can no longer be trusted: degrade this shard
                # to the pipe codec for good — a poisoned ring must
                # never poison another round.
                self._pipe_degraded.add(index)
            shard = self._respawn(index)
            try:
                self._replay(shard)
                self._ipc.ring_broadcasts += shard.request(
                    windows, observations
                )
                raw = shard.collect(timeout)
                return [
                    self._decode_slot_payload(shard, result)
                    for result in raw
                ]
            except ShardTimeoutError:
                self._ipc.timeouts += 1
                reason = "timeout"
            except PipelineError:
                reason = "crash"
            except Exception:  # noqa: BLE001 - any decode failure
                reason = "corrupt"
        return self._handle_shard_loss(index, reason)

    def _respawn(self, index: int) -> _ProcessShard:
        """Replace one failed shard process from its original plan."""
        shards = self._shards
        assert shards is not None
        shards[index].reap()
        segment = None
        if (
            self._shard_transport == "shm"
            and index not in self._pipe_degraded
        ):
            # A fresh segment, never the old one: the dead shard may
            # have left the ring mid-write, and descriptors must only
            # ever resolve against bytes their own process wrote.
            segment = shm.ShardSegment.create(ring_bytes=self._ring_bytes)
        shard = _ProcessShard(
            self._context, self._plans[index], self._config,
            self._generators, self._scenario, segment=segment,
            armed_faults=self._armed_faults(index),
        )
        shards[index] = shard
        return shard

    def _replay(self, shard: _ProcessShard) -> None:
        """Fast-forward a fresh shard through every completed window.

        A shard is a pure function of its plan and its request tape, so
        one batched request over the completed slots — rebroadcasting
        the recorded per-window observations on adaptive runs — leaves
        the replacement's window clock, rng streams and controller
        state bit-identical to the lost shard's at the failed round.
        The replayed results are drained and discarded (the parent
        already merged those windows).
        """
        if self._windows_run == 0:
            return
        observations = None
        if self._adaptive:
            observations = list(self._observation_log[: self._windows_run])
        shard.request(self._windows_run, observations)
        shard.collect(self._round_timeout(self._windows_run))
        self._ipc.replayed_windows += self._windows_run

    def _handle_shard_loss(self, index: int, reason: str) -> None:
        """Apply ``on_shard_loss`` to a shard out of restart budget."""
        budget = self._config.max_shard_restarts
        shards = self._shards
        assert shards is not None
        shards[index].reap()
        if self._config.on_shard_loss != "degrade":
            raise PipelineError(  # _run_round poisons the runner
                f"worker shard {index} lost ({reason}) after {budget} "
                f"restart(s); aborting under on_shard_loss='abort' — set "
                f"on_shard_loss='degrade' to continue on the surviving "
                f"shards with loss accounting"
            )
        # The coordinator's own shard always survives to degrade onto.
        self._lost.add(index)
        return None

    def _decode_slot_payload(
        self, shard: _ProcessShard, result: _SlotResult
    ) -> "tuple[_SlotResult, list | None]":
        """Decode one process shard's Theta frame, accounting the IPC cost.

        Shared-memory descriptors resolve to a zero-copy view over the
        shard's segment (the codec copies the columns out, so nothing
        aliases the ring after decode); bytes frames are either the
        pipe transport or a ring-overflow fallback. Returns the result
        paired with its decoded batches (``None`` for an empty slot).
        """
        frame = result[5]
        self._ipc.theta_bytes_encoded += result[7]
        self._ipc.encode_seconds += result[8]
        if frame is None:
            return (result, None)
        started = time.perf_counter()
        if isinstance(frame, tuple):
            # Only the pickled descriptor crossed the pipe.
            self._ipc.bytes_through_pipe += len(pickle.dumps(frame))
            view = shard.segment.read_frame(frame)
            try:
                batches = decode_weighted_batches(view)
            finally:
                view.release()
        else:
            self._ipc.bytes_through_pipe += len(frame)
            if shard.segment is not None:  # shm shard fell back: overflow
                self._ipc.ring_overflows += 1
            batches = decode_weighted_batches(frame)
        self._ipc.decode_seconds += time.perf_counter() - started
        return (result, batches)

    def _merge_slot(
        self, slot_results: "list[tuple[_SlotResult, list | None]]"
    ) -> WindowOutcome | None:
        """Combine one window slot's per-shard results at the root.

        ``slot_results`` covers the *surviving* shards only. Lost
        shards (degrade policy) are accounted honestly rather than
        silently absorbed: their steady-state expected items go into
        ``items_dropped``, the estimate and its error bound come from
        the surviving Theta alone, and ``shards_lost`` surfaces the
        loss on the outcome.
        """
        self._windows_run += 1
        self._ipc.windows += 1
        lost_items = sum(self._expected_items[i] for i in self._lost)
        items_emitted = sum(result[0] for result, _ in slot_results)
        if items_emitted == 0:
            if self._adaptive:
                self._pending_observation = None  # empty window: hold
            return None
        theta = ThetaStore()
        for _result, batches in slot_results:  # shard order == plan order
            if batches is not None:
                theta.extend(batches)
        # The window's one estimate (shards ship Theta unestimated); a
        # scenario's degraded links can leave the merged Theta empty.
        approx = _estimate_window(
            theta, self._config.confidence, self._scenario is not None
        )
        if self._adaptive:
            # The merged root state is the observation — identical to
            # what an unsharded engine would observe, because the
            # codec round-trips every weight and value bit-for-bit.
            from repro.system.adaptive import observe_window

            self._pending_observation = observe_window(
                self._windows_run - 1, theta, approx
            )
        return WindowOutcome(
            window_index=self._windows_run,
            exact_sum=sum(result[1] for result, _ in slot_results),
            approx_sum=approx,
            srs_sum=sum(result[2] for result, _ in slot_results),
            items_emitted=items_emitted,
            items_sampled=sum(result[3] for result, _ in slot_results),
            items_dropped=(
                sum(result[4] for result, _ in slot_results) + lost_items
            ),
            sample_budget=sum(result[6] for result, _ in slot_results),
            shards_lost=len(self._lost),
        )

    def run_window(self) -> WindowOutcome | None:
        """Run one window across all shards; ``None`` if nothing emitted."""
        return self._run_slots(1)[0]

    def run(self, windows: int) -> RunOutcome:
        """Run several windows and collect the merged outcomes.

        Same contract as :meth:`EngineRunner.run`: empty windows
        contribute no outcome, and an entirely-empty run raises.
        """
        if windows <= 0:
            raise PipelineError(f"window count must be >= 1, got {windows}")
        outcome = RunOutcome()
        for window in self._run_slots(windows):
            if window is not None:
                outcome.windows.append(window)
        if not outcome.windows:
            raise PipelineError(
                "sources emitted no items in any window of the run; "
                "increase the source rates or the window size"
            )
        return outcome
