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

    def admit(self, item_count: int) -> float:
        """Queue ``item_count`` items of work; return their completion time.

        Work is FIFO behind whatever the host is already serving, so the
        completion time is known on arrival: a sink settles it here.
        """
        if item_count < 0:
            raise ConfigurationError(
                f"item count must be >= 0, got {item_count}"
            )
        start = max(self._clock.now, self._busy_until)
        service_time = item_count / self._service_rate
        self._busy_until = start + service_time
        self.items_processed += item_count
        self.busy_time += service_time
        return self._busy_until

    def process(
        self,
        item_count: int,
        payload: Any,
        done: Callable[[Any], None],
    ) -> float:
        """:meth:`admit` the work; the clock calls ``done(payload)`` at
        the returned completion time."""
        completion = self.admit(item_count)
        self._clock.schedule_at(completion, done, payload)
        return completion
