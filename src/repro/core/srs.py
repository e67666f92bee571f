"""Simple random sampling (SRS) baseline.

The paper's baseline (implemented in its prototype as a user-defined
Kafka processor) is the *coin-flip* sampling algorithm of Jermaine et
al. (DBO): each arriving item is kept independently with probability
equal to the sampling fraction, regardless of which sub-stream it came
from. SRS therefore under-represents small-but-important sub-streams,
which is exactly the failure mode ApproxIoT's stratification fixes.

Unlike reservoir sampling, the coin flip needs no window or buffer:
each item is decided on arrival. That is why, in the paper's Figure 9,
the SRS system's latency does not grow with the window size while
ApproxIoT's does. The baseline recreates the total Horvitz-Thompson
style, scaling the kept values by ``1 / fraction``.
"""

from __future__ import annotations

from repro.errors import SamplingError

__all__ = ["coin_flips"]


def coin_flips(gen, fraction: float, count: int):
    """Keep/drop decisions for ``count`` records, in arrival order.

    One vector draw from ``gen`` — the engines pass their pipeline's
    ``numpy.random.Generator`` (the contract in
    :mod:`repro.core.fastpath`) — returns a boolean mask; the engines
    apply it to a column.
    """
    if not 0.0 < fraction <= 1.0:
        raise SamplingError(
            f"sampling fraction must be in (0, 1], got {fraction}"
        )
    return gen.random(count) < fraction
