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
from repro.core.cost import (
    AdaptiveErrorBudget,
    FractionBudget,
    ThroughputBudget,
    neyman_factors,
)
from repro.core.error_bounds import (
    ApproximateResult,
    confidence_multiplier,
    estimate_mean_with_error,
    estimate_sum_with_error,
    mean_variance,
    sample_variance,
    substream_sum_variance,
    sum_variance,
)
from repro.core.estimator import (
    SubstreamEstimate,
    ThetaStore,
    estimate_mean,
    estimate_sum,
)
from repro.core.items import StreamItem, WeightedBatch, group_by_substream
from repro.core.reservoir import (
    ReservoirSampler,
    SkipAheadReservoirSampler,
    reservoir_sample,
)
from repro.core.srs import CoinFlipSampler, horvitz_thompson_sum, srs_sample
from repro.core.stratified import (
    allocate_equal,
    allocate_fair_fill,
    allocate_proportional,
    allocate_weighted,
    get_allocation_policy,
)
from repro.core.weights import WeightMap, local_weight, output_weight
from repro.core.whs import WeightedHierarchicalSampler, WHSampResult, whsamp

__all__ = [
    "AdaptiveErrorBudget",
    "ApproximateResult",
    "CoinFlipSampler",
    "ColumnarBatch",
    "FractionBudget",
    "ReservoirSampler",
    "SkipAheadReservoirSampler",
    "StreamItem",
    "SubstreamEstimate",
    "ThetaStore",
    "ThroughputBudget",
    "WHSampResult",
    "WeightMap",
    "WeightedBatch",
    "WeightedHierarchicalSampler",
    "allocate_equal",
    "allocate_fair_fill",
    "allocate_proportional",
    "allocate_weighted",
    "confidence_multiplier",
    "estimate_mean",
    "estimate_mean_with_error",
    "estimate_sum",
    "estimate_sum_with_error",
    "get_allocation_policy",
    "group_by_substream",
    "masked_sum",
    "horvitz_thompson_sum",
    "local_weight",
    "mean_variance",
    "neyman_factors",
    "output_weight",
    "reservoir_sample",
    "sample_variance",
    "srs_sample",
    "substream_sum_variance",
    "sum_variance",
    "whsamp",
]
