"""Workload generators for the evaluation.

Synthetic Gaussian/Poisson sub-streams with the paper's exact
parameterisations, the fluctuating-rate Settings 1-3, the extreme-skew
mixture, and per-sub-stream generators for the two real-world case
studies (NYC taxi payments per borough, Brasov pollution per pollutant).
"""

from repro.workloads.pollution import POLLUTANTS, pollutant_generators
from repro.workloads.rates import RateSchedule, paper_rate_settings
from repro.workloads.skew import SkewedMixture, paper_skewed_mixture
from repro.workloads.source import Source
from repro.workloads.synthetic import (
    GaussianSubstream,
    PoissonSubstream,
    paper_gaussian_substreams,
    paper_poisson_substreams,
)
from repro.workloads.taxi import BOROUGHS, borough_generators

__all__ = [
    "BOROUGHS",
    "GaussianSubstream",
    "POLLUTANTS",
    "PoissonSubstream",
    "RateSchedule",
    "SkewedMixture",
    "Source",
    "borough_generators",
    "paper_gaussian_substreams",
    "paper_poisson_substreams",
    "paper_rate_settings",
    "paper_skewed_mixture",
    "pollutant_generators",
]
