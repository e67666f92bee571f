"""Deterministic fault injection for the sharded engine's supervisor.

The supervision layer (:mod:`repro.engine.sharding`) promises that a
crashed, hung or corrupted worker shard is detected, respawned and
replayed to a bit-identical result. A promise like that is only worth
anything if every recovery path is *exercised*, so this module makes
failure a first-class, seeded input: a :class:`FaultPlan` is a typed,
picklable timeline of faults targeted at exact ``(shard, window)``
coordinates, threaded through
:attr:`repro.system.config.PipelineConfig.fault_plan` (and the CLI's
``--inject-fault``) into each worker shard process, where
:func:`fire` detonates them at the targeted window.

Fault kinds, chosen to cover every distinct supervisor path:

* ``"crash"`` — the shard ``SIGKILL``\\ s itself mid-round: a hard
  process death with no exception, no close handshake and no cleanup
  (the pipe-EOF / dead-process detection path).
* ``"hang"`` — the shard sleeps forever while still alive: only the
  watchdog (``PipelineConfig.shard_timeout``) can detect it, so plans
  containing hang faults require a configured timeout.
* ``"raise"`` — the shard raises :class:`InjectedFaultError` from its
  serving loop: the clean ``("error", traceback)`` failure path.
* ``"corrupt-descriptor"`` — the shard completes the window but mangles
  its Theta frame before shipping it: a stale shared-memory descriptor
  on the shm transport, truncated codec bytes on the pipe transport.
  The parent's decode fails loudly and the supervisor replaces the
  shard *on the pipe codec* — a corrupted ring must degrade, never be
  trusted again.

Every fault fires at most once: after the supervisor recovers a failed
round it re-arms only the faults targeting later windows, so a
deterministic plan cannot re-kill its own replacement forever.
Faults target worker shard *processes*: shards ``0..N-2`` of an
``N``-worker run (the coordinator runs shard ``N-1`` itself). Plans
naming shard ``N-1`` are rejected, as are plans for inline and
single-worker execution, where there is no process to kill.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass

from repro.errors import ConfigurationError, InjectedFaultError

__all__ = [
    "FAULT_KINDS",
    "CRASH",
    "HANG",
    "RAISE",
    "CORRUPT_DESCRIPTOR",
    "FaultSpec",
    "FaultPlan",
    "corrupt_frame",
    "fire",
]

#: The shard self-SIGKILLs mid-round (hard death, no cleanup).
CRASH = "crash"
#: The shard sleeps forever; only the watchdog can detect it.
HANG = "hang"
#: The shard raises :class:`~repro.errors.InjectedFaultError`.
RAISE = "raise"
#: The shard ships a mangled Theta frame (bad shm descriptor /
#: truncated pipe codec bytes); the parent's decode fails loudly.
CORRUPT_DESCRIPTOR = "corrupt-descriptor"

#: Every fault kind the harness can inject.
FAULT_KINDS = (CRASH, HANG, RAISE, CORRUPT_DESCRIPTOR)

#: One nap of a hung shard. The loop around it never exits — the value
#: only bounds how quickly the process notices a termination signal.
_HANG_NAP_SECONDS = 3600.0


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One typed fault aimed at an exact ``(shard, window)`` coordinate.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        shard: Target worker shard index (0-based plan order).
        window: Absolute window slot (0-based over the shard's whole
            lifetime, empty windows included) at which the fault fires.
    """

    kind: str
    shard: int
    window: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.shard, int) or self.shard < 0:
            raise ConfigurationError(
                f"fault shard must be an integer >= 0, got {self.shard!r}"
            )
        if not isinstance(self.window, int) or self.window < 0:
            raise ConfigurationError(
                f"fault window must be an integer >= 0, got {self.window!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``kind@shard:window`` (e.g. ``crash@1:2``)."""
        kind, sep, target = text.partition("@")
        shard_text, target_sep, window_text = target.partition(":")
        if not sep or not target_sep:
            raise ConfigurationError(
                f"fault spec {text!r} is not of the form kind@shard:window "
                f"(e.g. crash@1:2)"
            )
        try:
            shard, window = int(shard_text), int(window_text)
        except ValueError:
            raise ConfigurationError(
                f"fault spec {text!r} has non-integer shard/window "
                f"coordinates"
            ) from None
        return cls(kind, shard, window)

    def describe(self) -> str:
        """The spec in its canonical CLI form."""
        return f"{self.kind}@{self.shard}:{self.window}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic timeline of faults for one sharded run.

    A pure frozen value: picklable (it crosses into shard processes),
    hashable-by-content, and valid for any run whose worker count
    covers every targeted shard. Coordinates must be unique — two
    faults at the same ``(shard, window)`` could never both fire.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        coordinates = [(spec.shard, spec.window) for spec in self.faults]
        if len(set(coordinates)) != len(coordinates):
            raise ConfigurationError(
                "fault plan targets the same (shard, window) twice; "
                "only one fault can fire per coordinate"
            )

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def parse(cls, specs: "tuple[str, ...] | list[str]") -> "FaultPlan":
        """Build a plan from CLI ``kind@shard:window`` strings."""
        return cls(tuple(FaultSpec.parse(text) for text in specs))

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        shards: int,
        windows: int,
        count: int = 1,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultPlan":
        """A reproducible random plan over a run's fault coordinate grid.

        Draws ``count`` distinct ``(shard, window)`` cells from the
        ``shards x windows`` grid and a kind for each, all from
        ``random.Random(f"fault-plan:{seed}")`` — the same seed always
        yields the same plan, which is what makes chaos runs replayable.
        """
        if shards < 1 or windows < 1:
            raise ConfigurationError(
                f"fault grid needs shards >= 1 and windows >= 1, got "
                f"shards={shards} windows={windows}"
            )
        if not 0 < count <= shards * windows:
            raise ConfigurationError(
                f"fault count must be in [1, {shards * windows}] for a "
                f"{shards}x{windows} grid, got {count}"
            )
        unknown = [kind for kind in kinds if kind not in FAULT_KINDS]
        if not kinds or unknown:
            raise ConfigurationError(
                f"fault kinds must be drawn from {FAULT_KINDS}, got {kinds}"
            )
        rng = random.Random(f"fault-plan:{seed}")
        cells = rng.sample(
            [(s, w) for s in range(shards) for w in range(windows)], count
        )
        specs = [
            FaultSpec(rng.choice(kinds), shard, window)
            for shard, window in cells
        ]
        specs.sort(key=lambda spec: (spec.shard, spec.window))
        return cls(tuple(specs))

    def for_shard(self, shard: int) -> tuple[FaultSpec, ...]:
        """Every fault targeting one shard, in window order."""
        return tuple(
            sorted(
                (spec for spec in self.faults if spec.shard == shard),
                key=lambda spec: spec.window,
            )
        )

    @property
    def needs_watchdog(self) -> bool:
        """Whether the plan contains a fault only a watchdog can detect."""
        return any(spec.kind == HANG for spec in self.faults)

    def max_shard(self) -> int:
        """The highest shard index any fault targets (-1 for no faults)."""
        return max((spec.shard for spec in self.faults), default=-1)


def fire(spec: FaultSpec) -> None:
    """Detonate a process-fatal fault inside the worker shard.

    ``crash`` hard-kills the process (SIGKILL — no exception, no
    cleanup, exactly what a kernel OOM kill looks like to the parent);
    ``hang`` never returns; ``raise`` raises
    :class:`~repro.errors.InjectedFaultError`. ``corrupt-descriptor``
    is not process-fatal and must be applied to the slot's frame via
    :func:`corrupt_frame` instead.
    """
    if spec.kind == CRASH:
        os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)  # pragma: no cover - SIGKILL cannot be survived
    if spec.kind == HANG:
        while True:  # pragma: no branch - only a signal ends this
            time.sleep(_HANG_NAP_SECONDS)
    if spec.kind == RAISE:
        raise InjectedFaultError(f"injected fault {spec.describe()}")
    raise ConfigurationError(
        f"fault kind {spec.kind!r} is not process-fatal; apply it with "
        f"corrupt_frame()"
    )


def corrupt_frame(frame):
    """Deterministically mangle one slot's Theta frame.

    A shared-memory ``(sequence, offset, length)`` descriptor gets a
    wrong sequence (the parent's :meth:`ShardSegment.read_frame` then
    fails its round check loudly); pipe codec bytes are truncated so
    the decoder fails mid-frame. An empty slot (``None``) has nothing
    to corrupt and passes through — the fault is a silent no-op there.
    """
    if isinstance(frame, tuple):
        sequence, offset, length = frame
        return (sequence + 1, offset, length)
    if isinstance(frame, (bytes, bytearray)):
        return bytes(frame[: max(1, len(frame) // 2)])
    return frame
