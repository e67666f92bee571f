"""Shared scaffolding for the figure specs.

The specs in :mod:`repro.experiments.figures` read from here: the
sizing (:class:`ExperimentScale`), the config every run derives from
(:func:`base_config`), the saturating placement of the deployment
figures, and :data:`WORKLOADS`, the schedule and generators each
figure's workload name stands for. The ``scale`` knob shrinks arrival
rates and window counts so the same code serves fast CI tests (scale
~ 0.01) and the full benchmark harness (scale 1.0 approaches the
paper's absolute rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.system.config import PipelineConfig
from repro.topology.placement import PlacementSpec
from repro.workloads.pollution import POLLUTANTS, pollutant_generators
from repro.workloads.rates import RateSchedule
from repro.workloads.skew import paper_skewed_mixture
from repro.workloads.synthetic import (
    paper_gaussian_substreams,
    paper_poisson_substreams,
)
from repro.workloads.taxi import BOROUGHS, borough_generators

__all__ = [
    "ExperimentScale",
    "PAPER_FRACTIONS",
    "WORKLOADS",
    "base_config",
    "gaussian_generators",
    "poisson_generators",
    "pollution_workload",
    "taxi_workload",
    "uniform_schedule",
    "saturating_placement",
]

#: The sampling fractions on the paper's x-axes (Figs. 5-8, 10c, 11).
PAPER_FRACTIONS: list[float] = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Sizing for one experiment run, plus the engine config it runs on.

    Attributes:
        rate_scale: Multiplier over the baseline per-sub-stream rates.
        windows: Number of query windows to run and average over.
        config: The template every runner's config is derived from
            (:func:`base_config`): seed, worker shards, budget
            controller and shard supervision are
            read from it, never re-declared here.
    """

    rate_scale: float = 1.0
    windows: int = 5
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ConfigurationError(
                f"rate_scale must be positive, got {self.rate_scale}"
            )
        if self.windows <= 0:
            raise ConfigurationError(
                f"windows must be >= 1, got {self.windows}"
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


def taxi_workload(scale: ExperimentScale) -> tuple[RateSchedule, dict]:
    """Schedule + generators for the taxi case study (Fig. 11).

    Borough rates follow the 2013 ride-volume shares, scaled to an
    aggregate comparable to the synthetic experiments.
    """
    aggregate = 100_000.0 * scale.rate_scale
    schedule = RateSchedule(
        "nyc-taxi",
        {
            f"taxi/{borough}": max(2.0, aggregate * share)
            for borough, share in BOROUGHS.items()
        },
    )
    return schedule, borough_generators()


def pollution_workload(scale: ExperimentScale) -> tuple[RateSchedule, dict]:
    """Schedule + generators for the pollution case study (Fig. 11).

    Pollutant feeds report at equal rates (every sensor reports each
    period in the real dataset).
    """
    aggregate = 100_000.0 * scale.rate_scale
    per_pollutant = aggregate / len(POLLUTANTS)
    schedule = RateSchedule(
        "brasov-pollution",
        {
            f"pollution/{pollutant}": max(2.0, per_pollutant)
            for pollutant in POLLUTANTS
        },
    )
    return schedule, pollutant_generators()


def _skew_workload(scale: ExperimentScale) -> tuple[RateSchedule, dict]:
    """The §V-E extreme-skew mixture at 100 k items/s (Fig. 10(c))."""
    mixture = paper_skewed_mixture()
    rate = 100_000.0 * scale.rate_scale
    schedule = RateSchedule(
        "skewed",
        {
            sub.name: max(2.0, rate * proportion)
            for sub, proportion in zip(mixture.substreams, mixture.proportions)
        },
    )
    return schedule, {sub.name: sub for sub in mixture.substreams}


Workload = Callable[[ExperimentScale], tuple[RateSchedule, dict]]

#: Workload name -> ``f(scale) -> (schedule, generators)``: every input
#: a figure spec names.
WORKLOADS: dict[str, Workload] = {
    "gaussian": lambda scale: (
        uniform_schedule(scale.rate_scale), gaussian_generators()
    ),
    "poisson": lambda scale: (
        uniform_schedule(scale.rate_scale), poisson_generators()
    ),
    "skew": _skew_workload,
    "taxi": taxi_workload,
    "pollution": pollution_workload,
}


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
    """The scale's config template at one experiment point.

    Overrides only what a figure varies — sampling fraction, window,
    mode and (when given) placement — and carries every other field of
    ``scale.config`` through, so a knob set on the template (for
    instance by a ``python -m repro figures`` flag) reaches every
    figure runner without being named here.
    """
    point: dict[str, object] = {}
    if placement is not None:
        point["placement"] = placement
    return replace(
        scale.config,
        sampling_fraction=fraction,
        window_seconds=window_seconds,
        mode=mode,
        **point,
    )
