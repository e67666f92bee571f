"""The grouped SUM query over the root's sampled window.

The paper's system supports *approximate linear queries*; the overall
SUM* with its §III-D bound is
:func:`~repro.core.error_bounds.estimate_sum_with_error`. The grouped
form below answers one SUM per sub-stream, each with its own bound,
over the root's :class:`~repro.core.estimator.ThetaStore` for one
window.
"""

from __future__ import annotations

from repro.core.error_bounds import (
    ApproximateResult,
    confidence_multiplier,
    sum_variance,
)
from repro.core.estimator import ThetaStore
from repro.errors import EstimationError

__all__ = ["PerSubstreamSumQuery"]


class PerSubstreamSumQuery:
    """``SELECT substream, SUM(value) GROUP BY substream``.

    The pollution case study reads it: total per pollutant per window.
    """

    def __init__(self, confidence: float = 0.95) -> None:
        self.confidence = confidence

    def execute_grouped(self, theta: ThetaStore) -> dict[str, ApproximateResult]:
        """Per-sub-stream SUM estimates with individual error bounds."""
        estimates = theta.per_substream()
        if not estimates:
            raise EstimationError("cannot query an empty store")
        multiplier = confidence_multiplier(self.confidence)
        out: dict[str, ApproximateResult] = {}
        for substream, est in estimates.items():
            variance = sum_variance({substream: est})
            out[substream] = ApproximateResult(
                value=est.estimated_sum,
                error=multiplier * variance ** 0.5,
                confidence=self.confidence,
                variance=variance,
                sampled_items=est.sampled_count,
            )
        return out
