"""Top-k and quantile queries over the weighted sample.

The paper supports only linear queries and names top-k among the
"more complex queries" left for future work (§VIII). This module
implements that extension on the same weighted-sample substrate:

* :class:`TopKQuery` ranks sub-streams by their estimated totals and
  returns the k largest with per-stratum error bounds, flagging ranks
  that are statistically unstable (confidence intervals overlap).
* :class:`QuantileQuery` estimates a value quantile from the weighted
  empirical distribution, with a normal-approximation confidence band
  on the rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.error_bounds import confidence_multiplier, substream_sum_variance
from repro.core.estimator import ThetaStore
from repro.errors import EstimationError

__all__ = ["RankedSubstream", "TopKQuery", "QuantileEstimate", "QuantileQuery"]


@dataclass(frozen=True, slots=True)
class RankedSubstream:
    """One entry of a top-k answer.

    Attributes:
        rank: 1-based position in the ranking.
        substream: The stratum name.
        estimated_sum: Its estimated total.
        error: Half-width of the stratum's confidence interval.
        stable: Whether this entry's interval is disjoint from the next
            entry's (a rank swap is outside the confidence level).
    """

    rank: int
    substream: str
    estimated_sum: float
    error: float
    stable: bool


class TopKQuery:
    """``SELECT substream, SUM(value) ... ORDER BY 2 DESC LIMIT k``."""

    def __init__(self, k: int, confidence: float = 0.95) -> None:
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise EstimationError(f"k must be an integer >= 1, got {k!r}")
        self.name = "top-k"
        self.k = k
        self.confidence = confidence

    def execute(self, theta: ThetaStore) -> list[RankedSubstream]:
        """Rank sub-streams by estimated total over one window."""
        estimates = theta.per_substream()
        if not estimates:
            raise EstimationError("cannot rank over an empty store")
        multiplier = confidence_multiplier(self.confidence)
        scored = []
        for substream, est in estimates.items():
            variance = substream_sum_variance(est)
            scored.append(
                (est.estimated_sum, multiplier * math.sqrt(variance), substream)
            )
        scored.sort(reverse=True)
        top = scored[: self.k]
        ranked: list[RankedSubstream] = []
        for index, (total, error, substream) in enumerate(top):
            if index + 1 < len(scored):
                next_total, next_error, _ = scored[index + 1]
                stable = total - error > next_total + next_error
            else:
                stable = True
            ranked.append(
                RankedSubstream(
                    rank=index + 1,
                    substream=substream,
                    estimated_sum=total,
                    error=error,
                    stable=stable,
                )
            )
        return ranked


@dataclass(frozen=True, slots=True)
class QuantileEstimate:
    """A quantile answer with a confidence band.

    Attributes:
        q: The requested quantile in (0, 1).
        value: The weighted empirical quantile.
        lower: Value at the lower end of the rank confidence band.
        upper: Value at the upper end of the rank confidence band.
        effective_sample_size: Kish effective n of the weighted sample.
    """

    q: float
    value: float
    lower: float
    upper: float
    effective_sample_size: float

    def contains(self, exact: float) -> bool:
        """Whether the band covers a given exact quantile value."""
        return self.lower <= exact <= self.upper


class QuantileQuery:
    """Weighted quantile over the window's sampled values.

    Each sampled value represents ``W_out`` original items, so the
    empirical CDF weighs values by their batch weights. The confidence
    band perturbs the target rank by ``z * sqrt(q(1-q)/n_eff)`` where
    ``n_eff`` is the Kish effective sample size — the classic normal
    approximation for sample quantiles, adapted to unequal weights.
    """

    def __init__(self, q: float, confidence: float = 0.95) -> None:
        if not 0.0 < q < 1.0:
            raise EstimationError(f"quantile must be in (0, 1), got {q}")
        self.name = "quantile"
        self.q = q
        self.confidence = confidence

    def execute(self, theta: ThetaStore) -> QuantileEstimate:
        """Estimate the quantile over one window's Theta store."""
        weighted: list[tuple[float, float]] = []
        for batch in theta.batches:
            for item in batch.items:
                weighted.append((item.value, batch.weight))
        if not weighted:
            raise EstimationError("cannot estimate a quantile from no items")
        weighted.sort()
        total_weight = sum(weight for _value, weight in weighted)
        sum_sq = sum(weight * weight for _value, weight in weighted)
        n_eff = total_weight * total_weight / sum_sq

        z = confidence_multiplier(self.confidence)
        band = z * math.sqrt(self.q * (1.0 - self.q) / n_eff)
        lo_rank = max(0.0, self.q - band)
        hi_rank = min(1.0, self.q + band)

        return QuantileEstimate(
            q=self.q,
            value=self._value_at(weighted, total_weight, self.q),
            lower=self._value_at(weighted, total_weight, lo_rank),
            upper=self._value_at(weighted, total_weight, hi_rank),
            effective_sample_size=n_eff,
        )

    @staticmethod
    def _value_at(
        weighted: list[tuple[float, float]], total_weight: float, rank: float
    ) -> float:
        """Value at a cumulative-weight rank in the sorted sample."""
        target = rank * total_weight
        cumulative = 0.0
        for value, weight in weighted:
            cumulative += weight
            if cumulative >= target:
                return value
        return weighted[-1][0]
