"""Measurement helpers over the simulated network.

Collects the quantities the paper's evaluation reports: bandwidth
saving (Fig. 7) and the mean end-to-end latency (Figs. 8, 9).
"""

from __future__ import annotations

import numpy as _np

from repro.errors import SimulationError

__all__ = ["LatencyRecorder", "bandwidth_saving"]


class LatencyRecorder:
    """Accumulates end-to-end latency samples (seconds).

    Stored as float64 arrays, one per recorded delivery; readers
    consolidate them once.
    """

    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: list = []

    def record_column(self, emitted_at, delivered_at: float) -> None:
        """Record one delivery: a column of emissions that arrived together."""
        if not len(emitted_at):
            return
        emitted_at = _np.asarray(emitted_at, dtype=_np.float64)
        latest = float(emitted_at.max())
        chunk = delivered_at - emitted_at
        if delivered_at < latest:
            raise SimulationError(
                f"delivery at {delivered_at} precedes emission at {latest}"
            )
        self._chunks.append(chunk)

    def _column(self):
        """Every sample as one column; raises if empty."""
        if not self._chunks:
            raise SimulationError("no latency samples recorded")
        if len(self._chunks) > 1:
            self._chunks = [_np.concatenate(self._chunks)]
        return self._chunks[0]

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return sum(len(chunk) for chunk in self._chunks)

    def mean(self) -> float:
        """Mean latency; raises if empty."""
        column = self._column()
        return float(column.sum()) / len(column)


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
