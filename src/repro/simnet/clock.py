"""Deterministic discrete-event simulation clock.

A single priority queue of timestamped callbacks. Everything in the
simulated system — item arrivals, interval boundaries, link deliveries,
host service completions — is an event on this clock, which makes runs
bit-for-bit reproducible for a given seed.

A queue entry is the tuple ``(time, seq, fn, arg)`` and firing it calls
``fn(arg)``: a link delivery or host completion schedules its callback
with the payload as ``arg``, so an event costs one tuple and no closure.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.errors import ClockError

__all__ = ["Clock"]


class Clock:
    """An event loop over virtual time.

    Events scheduled for the same instant fire in scheduling order
    (FIFO tie-break via a sequence number), which keeps multi-node
    interval boundaries deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[tuple[float, int, Callable[[Any], object], Any]] = []
        self._seq = itertools.count()
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(
        self, delay: float, fn: Callable[[Any], object], arg: Any
    ) -> None:
        """Schedule ``fn(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self._now + delay, fn, arg)

    def schedule_at(
        self, time: float, fn: Callable[[Any], object], arg: Any
    ) -> None:
        """Schedule ``fn(arg)`` at an absolute virtual time."""
        # One chained comparison on the hot path: NaN fails both sides.
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise ClockError(f"cannot schedule at non-finite time {time}")
            raise ClockError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), fn, arg))

    def step(self) -> bool:
        """Fire the next event; return False if the queue is empty."""
        if not self._queue:
            return False
        self._now, _seq, fn, arg = heapq.heappop(self._queue)
        self.events_fired += 1
        fn(arg)
        return True

    def run(self) -> None:
        """Drain the event queue; :meth:`run_until` is the bounded form."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            self._now, _seq, fn, arg = pop(queue)
            self.events_fired += 1
            fn(arg)

    def run_until(self, time: float) -> None:
        """Fire all events up to and including virtual time ``time``.

        The clock ends exactly at ``time`` even if the queue drained
        earlier, so subsequent relative scheduling is anchored there.
        """
        if not math.isfinite(time):
            raise ClockError(f"cannot run until non-finite time {time}")
        if time < self._now:
            raise ClockError(f"cannot run backwards to {time} from {self._now}")
        while self._queue:
            next_time = self._queue[0][0]
            if next_time > time:
                break
            self.step()
        self._now = time
