"""Error estimation with rigorous bounds (§III-D of the paper).

Because every sub-stream is sampled independently and items within a
sub-stream are selected uniformly at random across nodes, the paper
applies classic random-sampling theory (finite population correction +
central limit theorem):

* Eq. 11 — variance of the per-stratum SUM estimate::

      Var(SUM_i) = c_ib * (c_ib - zeta) * s_i^2 / zeta

  with ``c_ib`` the (recovered) true stratum size, ``zeta`` the number
  of physically sampled items at the root and ``s_i^2`` their sample
  variance (Eq. 12).
* Eq. 10 — the variance of the overall SUM is the sum over strata.
* The error bound follows the "68-95-99.7" rule: the result lies within
  one/two/three standard deviations with 68 % / 95 % / 99.7 %
  probability. Arbitrary confidence levels use the normal quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as _np

from repro.core.estimator import SubstreamEstimate, ThetaStore
from repro.errors import EstimationError

__all__ = [
    "ApproximateResult",
    "sample_variance",
    "substream_sum_variance",
    "sum_variance",
    "confidence_multiplier",
    "estimate_sum_with_error",
]

#: The three canonical confidence levels of the 68-95-99.7 rule, mapped
#: to their standard-deviation multipliers.
SIGMA_RULE: dict[float, float] = {0.68: 1.0, 0.95: 2.0, 0.997: 3.0}


@dataclass(frozen=True, slots=True)
class ApproximateResult:
    """An approximate query answer in the paper's ``result ± error`` form.

    Attributes:
        value: The point estimate (SUM*, or one stratum's SUM_i).
        error: Half-width of the confidence interval at ``confidence``.
        confidence: The confidence level the half-width corresponds to.
        variance: The estimated variance behind the bound.
        sampled_items: Number of physical items the estimate used.
    """

    value: float
    error: float
    confidence: float
    variance: float
    sampled_items: int

    @property
    def lower(self) -> float:
        """Lower end of the confidence interval."""
        return self.value - self.error

    @property
    def upper(self) -> float:
        """Upper end of the confidence interval."""
        return self.value + self.error

    def contains(self, exact: float) -> bool:
        """Whether the interval covers a given exact value."""
        return self.lower <= exact <= self.upper

    def relative_error(self) -> float:
        """Half-width as a fraction of the point estimate."""
        if self.value == 0:
            raise EstimationError("relative error undefined for a zero estimate")
        return abs(self.error / self.value)

    def __str__(self) -> str:
        return f"{self.value:.6g} ± {self.error:.3g} ({self.confidence:.1%})"


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance ``s^2`` (Eq. 12); 0.0 for n < 2.

    numpy's own two-pass arithmetic for ``var(ddof=1)`` — mean as
    sum / n, deviations squared in place, their sum / (n - 1) — run
    directly, so the result is that method's to the last bit without
    its Python wrapper. A plain sequence is converted first.
    """
    n = len(values)
    if n < 2:
        return 0.0
    column = _np.asarray(values, dtype=_np.float64)
    deviations = column - _np.add.reduce(column) / n
    _np.multiply(deviations, deviations, out=deviations)
    return float(_np.add.reduce(deviations) / (n - 1))


def substream_sum_variance(estimate: SubstreamEstimate) -> float:
    """Eq. 11 for one stratum.

    The finite population correction ``(c_ib - zeta)`` is clamped at
    zero: sampling noise can make the recovered ``c_ib`` fall slightly
    below the physical sample size, and a negative variance is
    meaningless.
    """
    zeta = estimate.sampled_count
    if zeta == 0:
        raise EstimationError(
            f"sub-stream {estimate.substream!r} has no sampled items"
        )
    c_ib = estimate.estimated_count
    fpc = max(0.0, c_ib - zeta)
    s2 = sample_variance(estimate.sampled_values)
    return c_ib * fpc * s2 / zeta


def sum_variance(estimates: Mapping[str, SubstreamEstimate]) -> float:
    """Eq. 10: total variance is the sum of independent stratum variances."""
    return sum(substream_sum_variance(est) for est in estimates.values())


def confidence_multiplier(confidence: float) -> float:
    """Standard-deviation multiplier for a two-sided confidence level.

    The three 68-95-99.7 levels return exactly 1, 2 and 3 (as the paper
    specifies); any other level in (0, 1) uses the exact normal
    quantile.
    """
    if confidence in SIGMA_RULE:
        return SIGMA_RULE[confidence]
    if not 0.0 < confidence < 1.0:
        raise EstimationError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    # Wichura's AS241 via the stdlib — identical to scipy's norm.ppf
    # to ~1e-15, without a scipy dependency.
    return float(NormalDist().inv_cdf(0.5 + confidence / 2.0))


def estimate_sum_with_error(
    theta: ThetaStore, confidence: float = 0.95
) -> ApproximateResult:
    """Approximate SUM* with its error bound (lines 22-25, Algorithm 2)."""
    estimates = theta.per_substream()
    if not estimates:
        raise EstimationError("cannot estimate from an empty Theta store")
    value = sum(est.estimated_sum for est in estimates.values())
    variance = sum_variance(estimates)
    sampled = sum(est.sampled_count for est in estimates.values())
    error = confidence_multiplier(confidence) * math.sqrt(variance)
    return ApproximateResult(value, error, confidence, variance, sampled)
