"""Shared scaffolding for the per-figure experiments.

Each experiment exposes a ``run_*`` function returning structured
results plus a ``main(scale)`` that prints the paper-style table. The
``scale`` knob shrinks arrival rates and window counts so the same code
serves fast CI tests (scale ~ 0.01) and the full benchmark harness
(scale 1.0 approaches the paper's absolute rates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.system.config import PipelineConfig
from repro.topology.placement import PlacementSpec
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import (
    paper_gaussian_substreams,
    paper_poisson_substreams,
)

__all__ = [
    "ExperimentScale",
    "PAPER_FRACTIONS",
    "base_config",
    "gaussian_generators",
    "poisson_generators",
    "uniform_schedule",
    "saturating_placement",
]

#: The sampling fractions on the paper's x-axes (Figs. 5-8, 10c, 11).
PAPER_FRACTIONS: list[float] = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Sizing for one experiment run.

    Attributes:
        rate_scale: Multiplier over the baseline per-sub-stream rates.
        windows: Number of query windows to run and average over.
        seed: Base seed for the run.
        backend: Sampling kernel every runner uses (``"python"`` /
            ``"numpy"`` / ``"auto"``).
        transport: Inter-node transport every runner uses (``"auto"``
            resolves per engine; see
            :attr:`repro.system.config.PipelineConfig.transport`).
        workers: Process-parallel worker shards for statistical runs
            (see :attr:`repro.system.config.PipelineConfig.workers`;
            deployment figures model distribution via simnet and
            ignore it).
        budget_controller: Per-window budget feedback loop every
            statistical runner uses (``"static"`` /
            ``"adaptive_fraction"`` / ``"variance_aware"``; see
            :attr:`repro.system.config.PipelineConfig.budget_controller`).
        shard_transport: Shard IPC plane for sharded statistical runs
            (``"auto"`` / ``"pipe"`` / ``"shm"``; see
            :attr:`repro.system.config.PipelineConfig.shard_transport`).
        shard_timeout: Watchdog deadline in seconds per window slot
            for sharded statistical runs (``None`` disables; see
            :attr:`repro.system.config.PipelineConfig.shard_timeout`).
        on_shard_loss: Policy once a shard exhausts its restart budget
            (``"abort"`` / ``"degrade"``; see
            :attr:`repro.system.config.PipelineConfig.on_shard_loss`).
        inject_faults: ``kind@shard:window`` fault specs for the
            supervision harness (parsed into a
            :class:`~repro.engine.faults.FaultPlan`; empty injects
            nothing). Requires ``workers > 1``.
    """

    rate_scale: float = 1.0
    windows: int = 5
    seed: int = 42
    backend: str = "auto"
    transport: str = "auto"
    workers: int = 1
    budget_controller: str = "static"
    shard_transport: str = "auto"
    shard_timeout: float | None = None
    on_shard_loss: str = "abort"
    inject_faults: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ConfigurationError(
                f"rate_scale must be positive, got {self.rate_scale}"
            )
        if self.windows <= 0:
            raise ConfigurationError(
                f"windows must be >= 1, got {self.windows}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Small sizing for unit tests (sub-second runs)."""
        return cls(rate_scale=0.02, windows=3)

    @classmethod
    def bench(cls) -> "ExperimentScale":
        """Benchmark sizing (seconds per experiment point)."""
        return cls(rate_scale=0.25, windows=5)


def gaussian_generators() -> dict[str, object]:
    """The four Gaussian sub-stream generators keyed by name."""
    return {g.name: g for g in paper_gaussian_substreams()}


def poisson_generators() -> dict[str, object]:
    """The four Poisson sub-stream generators keyed by name."""
    return {g.name: g for g in paper_poisson_substreams()}


def uniform_schedule(scale: float, per_stream_rate: float = 25_000.0) -> RateSchedule:
    """Equal-rate schedule over sub-streams A-D (the §V-B workload)."""
    rate = per_stream_rate * scale
    return RateSchedule(
        "uniform", {"A": rate, "B": rate, "C": rate, "D": rate}
    )


def saturating_placement(
    schedule: RateSchedule, headroom: float = 10.0
) -> PlacementSpec:
    """Provision hosts so the *native* root saturates (§V-A methodology).

    The source rate is tuned so the datacenter node is saturated in
    native execution: the root's service rate is the aggregate offered
    load divided by ``headroom``, while edge nodes keep enough capacity
    to ingest the full load. Sampling then shifts the bottleneck off
    the root exactly as in the paper's Fig. 6.
    """
    if headroom <= 1.0:
        raise ConfigurationError(
            f"headroom must exceed 1 for saturation, got {headroom}"
        )
    aggregate = schedule.total_rate
    root_rate = aggregate / headroom
    # Four L1 nodes must jointly absorb the aggregate; give margin.
    edge_rate = aggregate / 2.0
    return PlacementSpec.paper_defaults(root_rate=root_rate, edge_rate=edge_rate)


def base_config(fraction: float, scale: ExperimentScale,
                window_seconds: float = 1.0, mode: str = "approxiot",
                placement: PlacementSpec | None = None) -> PipelineConfig:
    """A pipeline config with experiment-standard defaults.

    Threads the scale's seed, sampling backend, transport,
    worker-shard count, budget controller, shard transport and shard
    supervision knobs (watchdog timeout, loss policy, injected faults)
    into the config, so ``python -m repro figures --backend/
    --transport/--workers/--budget-controller/
    --shard-transport/--shard-timeout/--on-shard-loss/--inject-fault``
    reach every figure runner through one seam.
    """
    kwargs: dict[str, object] = {}
    if placement is not None:
        kwargs["placement"] = placement
    if scale.inject_faults:
        from repro.engine.faults import FaultPlan

        kwargs["fault_plan"] = FaultPlan.parse(scale.inject_faults)
    return PipelineConfig(
        sampling_fraction=fraction,
        window_seconds=window_seconds,
        mode=mode,
        seed=scale.seed,
        backend=scale.backend,
        transport=scale.transport,
        workers=scale.workers,
        budget_controller=scale.budget_controller,
        shard_transport=scale.shard_transport,
        shard_timeout=scale.shard_timeout,
        on_shard_loss=scale.on_shard_loss,
        **kwargs,
    )
