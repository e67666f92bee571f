"""Configuration objects for assembled pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.fastpath import BACKENDS, resolve_backend
from repro.core.stratified import AllocationPolicy, allocate_fair_fill
from repro.errors import ConfigurationError
from repro.topology.placement import PlacementSpec
from repro.topology.tree import LogicalTree, paper_tree

__all__ = [
    "PipelineConfig",
    "ExecutionMode",
    "BUDGET_CONTROLLERS",
    "MAX_SHARD_TIMEOUT",
    "SHARD_LOSS_POLICIES",
]


class ExecutionMode:
    """The three systems the paper compares (§V-A Methodology)."""

    APPROXIOT = "approxiot"
    SRS = "srs"
    NATIVE = "native"

    ALL = (APPROXIOT, SRS, NATIVE)


#: The longest watchdog deadline, in seconds (about 24.8 days): the
#: watchdog waits in ``Connection.poll``, which counts whole
#: milliseconds in a C ``int``. A longer
#: :attr:`PipelineConfig.shard_timeout` is rejected, and a round
#: deadline (timeout × window slots) is clamped to this — a deadline
#: that far out already means "forever".
MAX_SHARD_TIMEOUT = (2**31 - 1) // 1000

#: Valid values of :attr:`PipelineConfig.budget_controller` — the
#: per-window feedback loop of §IV-B (see :mod:`repro.system.adaptive`
#: for the implementations): ``"static"`` (no feedback; the bit-exact
#: default), ``"adaptive_fraction"`` (the multiplicative global-fraction
#: controller run between windows) or ``"variance_aware"`` (Neyman
#: reallocation of a fixed budget toward high-variance sub-streams).
BUDGET_CONTROLLERS = ("static", "adaptive_fraction", "variance_aware")

#: Valid values of :attr:`PipelineConfig.on_shard_loss` — what the
#: shard supervisor does once a worker shard has exhausted its
#: ``max_shard_restarts`` respawn budget: ``"abort"`` (the default)
#: fails the run loudly; ``"degrade"`` continues on the surviving
#: shards with honest accounting (the lost shard's expected items are
#: counted into ``items_dropped``, bounds are recomputed from the
#: surviving Theta, and ``WindowOutcome.shards_lost`` surfaces the
#: loss per window).
SHARD_LOSS_POLICIES = ("abort", "degrade")


@dataclass(frozen=True)
class PipelineConfig:
    """Shared knobs for both the statistical and deployment runners.

    Instances are immutable; derive variants with
    :func:`dataclasses.replace`. This class is the one place an engine
    knob is declared: the CLI passes each flag named after a field
    straight through, and the experiment harness carries a whole
    config as its template.

    Attributes:
        sampling_fraction: End-to-end fraction of the stream that
            reaches the query (the paper's x-axis in Figs. 5-8, 10-11).
        window_seconds: The computation window / interval length.
        mode: One of :class:`ExecutionMode` — which system to run.
        tree: The logical tree (defaults to the paper's 4-layer tree).
        placement: Host/link provisioning for deployment simulation.
        allocation_policy: ``getSampleSize`` policy for WHSamp.
        confidence: Confidence level for reported error bounds.
        seed: Seed for all randomness in a run.
        backend: Sampling kernel — ``"python"``, ``"numpy"`` or
            ``"auto"`` (default; uses numpy when installed, e.g. via
            the ``[fast]`` extra, and pure Python otherwise).
        workers: Process-parallel worker shards for the statistical
            engine (§III-E). ``1`` (the default) runs the whole tree
            in-process; ``N > 1`` splits every sub-stream's rate into
            ``N`` equal shares, runs one full sampling tree per shard
            in its own OS process, and merges per-shard Theta state at
            the root. Fixed ``(seed, workers)`` pairs are
            deterministic. The deployment simulator models
            distribution explicitly through simnet hosts/links and
            therefore ignores this knob.
        budget_controller: The per-window feedback loop (§IV-B) the
            statistical engine runs — one of
            :data:`BUDGET_CONTROLLERS`. ``"static"`` (the default)
            applies no feedback and leaves the engine bit-for-bit the
            classic run; ``"adaptive_fraction"`` steers the global
            sampling fraction on the reported error bound between
            windows; ``"variance_aware"`` re-splits a fixed budget
            toward high-variance sub-streams via Neyman weights read
            from the previous window's root Theta. Sharded runs
            broadcast the merged root observation so every shard
            replays the identical controller decision.
        shard_timeout: Watchdog deadline, in seconds per window slot,
            for collecting a worker shard's round (``None``, the
            default, blocks forever — the seed behaviour; at most
            :data:`MAX_SHARD_TIMEOUT`). With a deadline set, a hung or
            silently-dead shard raises a diagnosable
            :class:`~repro.errors.ShardTimeoutError` within
            ``shard_timeout * slots_in_round`` seconds and the
            supervisor treats it like a crash (respawn-and-replay).
        max_shard_restarts: How many times the supervisor may respawn
            any one worker shard before declaring it lost (``0``
            disables recovery entirely — the seed's fail-stop
            behaviour). Respawned shards replay their deterministic
            history, so a recovered run is bit-identical to an
            unfaulted one.
        on_shard_loss: One of :data:`SHARD_LOSS_POLICIES` — what
            happens when a shard exhausts its restart budget:
            ``"abort"`` (default) fails the run loudly; ``"degrade"``
            continues on the surviving shards with per-window loss
            accounting.
        fault_plan: A :class:`~repro.engine.faults.FaultPlan` of
            deterministic injected faults for the supervision test
            harness (``None``, the default, injects nothing). Requires
            ``workers > 1`` process execution — faults kill shard
            *processes*, so the runner rejects plans on inline and
            single-worker runs.
    """

    sampling_fraction: float = 0.1
    window_seconds: float = 1.0
    mode: str = ExecutionMode.APPROXIOT
    tree: LogicalTree = field(default_factory=paper_tree)
    placement: PlacementSpec = field(
        default_factory=PlacementSpec.paper_defaults
    )
    allocation_policy: AllocationPolicy = allocate_fair_fill
    confidence: float = 0.95
    seed: int = 42
    backend: str = "auto"
    workers: int = 1
    budget_controller: str = "static"
    shard_timeout: float | None = None
    max_shard_restarts: int = 2
    on_shard_loss: str = "abort"
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_fraction <= 1.0:
            raise ConfigurationError(
                f"sampling fraction must be in (0, 1], got "
                f"{self.sampling_fraction}"
            )
        if not 0 < self.window_seconds < math.inf:
            raise ConfigurationError(
                f"window must be positive and finite, got "
                f"{self.window_seconds}"
            )
        if self.mode not in ExecutionMode.ALL:
            raise ConfigurationError(
                f"mode must be one of {ExecutionMode.ALL}, got {self.mode!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigurationError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        if self.budget_controller not in BUDGET_CONTROLLERS:
            raise ConfigurationError(
                f"budget_controller must be one of {BUDGET_CONTROLLERS}, "
                f"got {self.budget_controller!r}"
            )
        if self.shard_timeout is not None and not (
            0 < self.shard_timeout <= MAX_SHARD_TIMEOUT
        ):
            raise ConfigurationError(
                f"shard_timeout must be positive and at most "
                f"{MAX_SHARD_TIMEOUT} s (or None to disable the "
                f"watchdog), got {self.shard_timeout!r}"
            )
        if (
            not isinstance(self.max_shard_restarts, int)
            or self.max_shard_restarts < 0
        ):
            raise ConfigurationError(
                f"max_shard_restarts must be an integer >= 0, got "
                f"{self.max_shard_restarts!r}"
            )
        if self.on_shard_loss not in SHARD_LOSS_POLICIES:
            raise ConfigurationError(
                f"on_shard_loss must be one of {SHARD_LOSS_POLICIES}, "
                f"got {self.on_shard_loss!r}"
            )
        if self.fault_plan is not None:
            # Imported lazily: engine.faults sits above this module in
            # the layering (it only needs repro.errors), but config is
            # imported everywhere and must not pull the engine in at
            # module load.
            from repro.engine.faults import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise ConfigurationError(
                    f"fault_plan must be a repro.engine.faults.FaultPlan "
                    f"(or None), got {type(self.fault_plan).__name__}"
                )

    @property
    def resolved_backend(self) -> str:
        """The concrete sampling backend this config runs on.

        Resolves ``"auto"`` against the current environment; raises
        if ``"numpy"`` was requested explicitly but is unavailable.
        The engine resolves this exactly once per run (at pipeline
        assembly) and threads the result through every sampling call.
        """
        return resolve_backend(self.backend)
