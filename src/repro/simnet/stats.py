"""Measurement helpers over the simulated network.

Collects the quantities the paper's evaluation reports: bandwidth
saving (Fig. 7) and the mean end-to-end latency (Figs. 8, 9).
"""

from __future__ import annotations

import numpy as _np

from repro.errors import SimulationError

__all__ = ["LatencyRecorder", "bandwidth_saving"]


class LatencyRecorder:
    """Running mean of end-to-end latencies (seconds).

    The paper reports the mean latency only, so the state is a sum and
    a count, two scalars whatever the number of records: each delivery
    adds its per-record latencies ``delivered_at - emitted_at`` to the
    sum and is then dropped.
    """

    __slots__ = ("_sum", "count")

    def __init__(self) -> None:
        self._sum = 0.0
        #: Number of latencies recorded.
        self.count = 0

    def record_column(self, emitted_at, delivered_at: float) -> None:
        """Record one delivery: a column of emissions that arrived together."""
        if not len(emitted_at):
            return
        emitted_at = _np.asarray(emitted_at, dtype=_np.float64)
        latest = float(emitted_at.max())
        if delivered_at < latest:
            raise SimulationError(
                f"delivery at {delivered_at} precedes emission at {latest}"
            )
        # Per-record differences, then their sum: ``n * t - sum(stamps)``
        # would cancel catastrophically at large ``t``.
        self._sum += float(_np.add.reduce(delivered_at - emitted_at))
        self.count += len(emitted_at)

    def mean(self) -> float:
        """Mean latency; raises if empty."""
        if not self.count:
            raise SimulationError("no latency samples recorded")
        return self._sum / self.count


def bandwidth_saving(sampled_bytes: int, native_bytes: int) -> float:
    """Bandwidth-saving rate (%) of a sampled run against native.

    The paper's Fig. 7 metric: the fraction of native traffic avoided.
    """
    if native_bytes <= 0:
        raise SimulationError(
            f"native byte count must be positive, got {native_bytes}"
        )
    if sampled_bytes < 0:
        raise SimulationError(
            f"sampled byte count must be >= 0, got {sampled_bytes}"
        )
    return max(0.0, 100.0 * (1.0 - sampled_bytes / native_bytes))
