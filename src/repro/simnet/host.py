"""Simulated compute hosts with finite service rates.

A host processes items at ``service_rate`` items/second with a FIFO
queue. This is the mechanism behind the paper's throughput results:
the datacenter (root) host saturates when the offered load exceeds its
service rate, and sampling at edge layers reduces the load the root
must absorb, letting the whole system sustain a proportionally higher
source rate (Fig. 6) at lower end-to-end latency (Fig. 8).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.simnet.clock import Clock
from repro.errors import ConfigurationError

__all__ = ["Host"]


class Host:
    """A host that serves work items at a fixed rate via the clock."""

    def __init__(self, name: str, clock: Clock, service_rate: float) -> None:
        if not 0 < service_rate < math.inf:
            raise ConfigurationError(
                f"service rate must be finite and positive, got {service_rate}"
            )
        self.name = name
        self._clock = clock
        self._service_rate = float(service_rate)
        self._busy_until = 0.0
        self.items_processed = 0
        self.busy_time = 0.0

    @property
    def service_rate(self) -> float:
        """Items per second this host can process."""
        return self._service_rate

    @property
    def busy_until(self) -> float:
        """Virtual time at which the current queue drains."""
        return self._busy_until

    def queue_delay(self) -> float:
        """How long a new arrival would wait before service starts."""
        return max(0.0, self._busy_until - self._clock.now)

    def process(
        self,
        item_count: int,
        payload: Any,
        done: Callable[[Any], None],
    ) -> float:
        """Enqueue ``item_count`` items of work; call ``done`` when served.

        Returns the completion time. Work is FIFO behind whatever the
        host is already serving.
        """
        if item_count < 0:
            raise ConfigurationError(
                f"item count must be >= 0, got {item_count}"
            )
        now = self._clock.now
        start = max(now, self._busy_until)
        service_time = item_count / self._service_rate
        completion = start + service_time
        self._busy_until = completion
        self.items_processed += item_count
        self.busy_time += service_time
        self._clock.schedule_at(completion, lambda: done(payload))
        return completion

    def utilization(self, elapsed: float) -> float:
        """Fraction of the elapsed span the host spent serving."""
        if elapsed <= 0:
            raise ConfigurationError(f"elapsed must be positive, got {elapsed}")
        return min(1.0, self.busy_time / elapsed)

    def reset_counters(self) -> None:
        """Zero the work counters (queue state unchanged)."""
        self.items_processed = 0
        self.busy_time = 0.0
