"""Core algorithms of the ApproxIoT reproduction.

This subpackage contains the paper's primary contribution: weighted
hierarchical sampling (Algorithm 1), the SUM/MEAN estimators of §III-C
and the error bounds of §III-D, together with the sampling primitives
they build on (reservoir sampling, coin-flip SRS, stratum budget
allocation) and the budget cost functions. Algorithm 2's per-node loop
and §III-E's worker shards are run by :mod:`repro.engine` on these
primitives.
"""

from repro.core.columns import (
    ColumnarBatch,
    masked_sum,
)
from repro.core.cost import FractionBudget, neyman_factors
from repro.core.error_bounds import (
    ApproximateResult,
    confidence_multiplier,
    estimate_sum_with_error,
    sample_variance,
    substream_sum_variance,
    sum_variance,
)
from repro.core.estimator import SubstreamEstimate, ThetaStore
from repro.core.items import WeightedBatch
from repro.core.reservoir import ReservoirSampler, SkipAheadReservoirSampler
from repro.core.srs import coin_flips
from repro.core.stratified import (
    allocate_equal,
    allocate_fair_fill,
    allocate_proportional,
    allocate_weighted,
)
from repro.core.weights import local_weight, output_weight
from repro.core.whs import whsamp_batches

__all__ = [
    "ApproximateResult",
    "ColumnarBatch",
    "FractionBudget",
    "ReservoirSampler",
    "SkipAheadReservoirSampler",
    "SubstreamEstimate",
    "ThetaStore",
    "WeightedBatch",
    "allocate_equal",
    "allocate_fair_fill",
    "allocate_proportional",
    "allocate_weighted",
    "coin_flips",
    "confidence_multiplier",
    "estimate_sum_with_error",
    "masked_sum",
    "local_weight",
    "neyman_factors",
    "output_weight",
    "sample_variance",
    "substream_sum_variance",
    "sum_variance",
    "whsamp_batches",
]
