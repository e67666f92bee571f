"""Synthetic sub-stream generators (paper §V-A).

The microbenchmarks use four Gaussian sub-streams — A(μ=10, σ=5),
B(1000, 50), C(10000, 500), D(100000, 5000) — and four Poisson
sub-streams — A(λ=10), B(100), C(1000), D(10000). Each generator
draws whole value columns from a ``numpy.random.Generator``, tagged
with its sub-stream name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.workloads.source import SubstreamGenerator

__all__ = [
    "GaussianSubstream",
    "PoissonSubstream",
    "paper_gaussian_substreams",
    "paper_poisson_substreams",
]


@dataclass
class GaussianSubstream(SubstreamGenerator):
    """Generates normally-distributed item values for one stratum."""

    name: str
    mu: float
    sigma: float
    item_bytes: int = 100

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise WorkloadError(f"sigma must be >= 0, got {self.sigma}")

    def _values(self, count: int, gen):
        return gen.normal(self.mu, self.sigma, count)

    @property
    def expected_value(self) -> float:
        """Mean of the value distribution."""
        return self.mu


@dataclass
class PoissonSubstream(SubstreamGenerator):
    """Generates Poisson-distributed item values for one stratum.

    ``Generator.poisson`` is exact at every λ, including the paper's
    λ = 10^7 (Fig. 10(c)).
    """

    name: str
    lam: float
    item_bytes: int = 100

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise WorkloadError(f"lambda must be positive, got {self.lam}")

    def _values(self, count: int, gen):
        return gen.poisson(self.lam, count).astype(float)

    @property
    def expected_value(self) -> float:
        """Mean of the value distribution."""
        return self.lam


def paper_gaussian_substreams() -> list[GaussianSubstream]:
    """The four Gaussian sub-streams of §V-A."""
    return [
        GaussianSubstream("A", 10.0, 5.0),
        GaussianSubstream("B", 1000.0, 50.0),
        GaussianSubstream("C", 10000.0, 500.0),
        GaussianSubstream("D", 100000.0, 5000.0),
    ]


def paper_poisson_substreams() -> list[PoissonSubstream]:
    """The four Poisson sub-streams of §V-A."""
    return [
        PoissonSubstream("A", 10.0),
        PoissonSubstream("B", 100.0),
        PoissonSubstream("C", 1000.0),
        PoissonSubstream("D", 10000.0),
    ]
