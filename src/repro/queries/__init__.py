"""Approximate queries executed at the root node.

Linear queries (SUM/MEAN/COUNT and grouped variants) are what the
paper supports; top-k and quantiles implement the "more complex
queries" it lists as future work (§VIII).
"""

from repro.queries.query import (
    CountQuery,
    LinearQuery,
    MeanQuery,
    PerSubstreamSumQuery,
    SumQuery,
)
from repro.queries.topk import (
    QuantileEstimate,
    QuantileQuery,
    RankedSubstream,
    TopKQuery,
)

__all__ = [
    "CountQuery",
    "LinearQuery",
    "MeanQuery",
    "PerSubstreamSumQuery",
    "QuantileEstimate",
    "QuantileQuery",
    "RankedSubstream",
    "SumQuery",
    "TopKQuery",
]
