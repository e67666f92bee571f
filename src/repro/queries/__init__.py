"""Approximate queries executed at the root node.

The paper supports linear queries: the overall SUM* is
:func:`~repro.core.error_bounds.estimate_sum_with_error`, and
:class:`PerSubstreamSumQuery` is its grouped form. Top-k and quantiles
implement the "more complex queries" the paper lists as future work
(§VIII).
"""

from repro.queries.query import PerSubstreamSumQuery
from repro.queries.topk import (
    QuantileEstimate,
    QuantileQuery,
    RankedSubstream,
    TopKQuery,
)

__all__ = [
    "PerSubstreamSumQuery",
    "QuantileEstimate",
    "QuantileQuery",
    "RankedSubstream",
    "TopKQuery",
]
