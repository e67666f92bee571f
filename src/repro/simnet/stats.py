"""Measurement helpers over the simulated network.

Collects the quantities the paper's evaluation reports: per-link and
total bytes (bandwidth saving, Fig. 7), host utilization, and latency
percentiles over recorded end-to-end samples.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain

from repro.errors import SimulationError
from repro.simnet.network import Network

try:  # pragma: no cover - trivially environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = ["LatencyRecorder", "bandwidth_saving", "network_snapshot"]


class LatencyRecorder:
    """Accumulates end-to-end latency samples (seconds).

    Stored as float64 chunks, one per recorded delivery (numpy arrays,
    or ``array('d')`` without numpy); readers consolidate them once.
    """

    __slots__ = ("_chunks", "_ordered")

    def __init__(self) -> None:
        self._chunks: list = []
        self._ordered = None  # sorted samples, dropped on every record

    def record(self, emitted_at: float, delivered_at: float) -> None:
        """Record one item's source-to-result latency."""
        self.record_column((emitted_at,), delivered_at)

    def record_column(self, emitted_at, delivered_at: float) -> None:
        """Record one delivery: a column of emissions that arrived together."""
        if not len(emitted_at):
            return
        if _np is not None:
            emitted_at = _np.asarray(emitted_at, dtype=_np.float64)
            latest = float(emitted_at.max())
            chunk = delivered_at - emitted_at
        else:
            latest = max(emitted_at)
            chunk = array("d", (delivered_at - at for at in emitted_at))
        if delivered_at < latest:
            raise SimulationError(
                f"delivery at {delivered_at} precedes emission at {latest}"
            )
        self._chunks.append(chunk)
        self._ordered = None

    def _column(self):
        """Every sample as one column; raises if empty."""
        if not self._chunks:
            raise SimulationError("no latency samples recorded")
        if len(self._chunks) > 1:
            self._chunks = [
                _np.concatenate(self._chunks) if _np is not None
                else array("d", chain.from_iterable(self._chunks))
            ]
        return self._chunks[0]

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return sum(len(chunk) for chunk in self._chunks)

    def mean(self) -> float:
        """Mean latency; raises if empty."""
        column = self._column()
        total = column.sum() if _np is not None else sum(column)
        return float(total) / len(column)

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] (nearest-rank, one sort)."""
        column = self._column()
        if not 0.0 <= q <= 100.0:
            raise SimulationError(f"percentile must be in [0, 100], got {q}")
        if self._ordered is None:
            sort = _np.sort if _np is not None else sorted
            self._ordered = sort(column)
        rank = max(1, math.ceil(q / 100.0 * len(column)))
        return float(self._ordered[rank - 1])

    def max(self) -> float:
        """Largest latency observed."""
        column = self._column()
        return float(column.max() if _np is not None else max(column))


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


def network_snapshot(network: Network) -> dict[str, dict[str, float]]:
    """Summarise a network's counters per link and host."""
    snapshot: dict[str, dict[str, float]] = {"links": {}, "hosts": {}}
    for link in network.links:
        snapshot["links"][link.name] = {
            "bytes": float(link.bytes_sent),
            "messages": float(link.messages_sent),
            "queueing_delay": link.total_queueing_delay,
        }
    for name in network.hosts:
        host = network.host(name)
        snapshot["hosts"][name] = {
            "items": float(host.items_processed),
            "busy_time": host.busy_time,
        }
    return snapshot
