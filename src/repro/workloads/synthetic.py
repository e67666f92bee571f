"""Synthetic sub-stream generators (paper §V-A).

The microbenchmarks use four Gaussian sub-streams — A(μ=10, σ=5),
B(1000, 50), C(10000, 500), D(100000, 5000) — and four Poisson
sub-streams — A(λ=10), B(100), C(1000), D(10000). Each generator
produces :class:`~repro.core.items.StreamItem` values tagged with its
sub-stream name.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

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

    def _scalar_values(self, count: int, rng: random.Random) -> list[float]:
        return [rng.gauss(self.mu, self.sigma) for _ in range(count)]

    def _vector_values(self, count: int, gen):
        return gen.normal(self.mu, self.sigma, count)

    @property
    def expected_value(self) -> float:
        """Mean of the value distribution."""
        return self.mu


@dataclass
class PoissonSubstream(SubstreamGenerator):
    """Generates Poisson-distributed item values for one stratum.

    The scalar (``python`` backend) draw is numpy-free: exact Knuth
    inversion for small λ, normal approximation (rounded, clamped at 0)
    for large λ, which matches the paper's use of λ up to 10^7 without
    pathological generation cost. The vector (``numpy`` backend) draw
    is ``Generator.poisson`` — exact at every λ.
    """

    name: str
    lam: float
    item_bytes: int = 100
    _approximation_threshold: float = 1000.0
    _knuth_threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise WorkloadError(f"lambda must be positive, got {self.lam}")
        self._knuth_threshold = math.exp(-self.lam)

    def _draw(self, rng: random.Random) -> float:
        if self.lam >= self._approximation_threshold:
            value = rng.gauss(self.lam, self.lam ** 0.5)
            return float(max(0, round(value)))
        # Knuth inversion for small lambda.
        threshold = self._knuth_threshold
        k = 0
        product = rng.random()
        while product > threshold:
            k += 1
            product *= rng.random()
        return float(k)

    def _scalar_values(self, count: int, rng: random.Random) -> list[float]:
        return [self._draw(rng) for _ in range(count)]

    def _vector_values(self, count: int, gen):
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
