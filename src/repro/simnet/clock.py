"""Deterministic discrete-event simulation clock.

A single priority queue of timestamped callbacks. Everything in the
simulated system — item arrivals, interval boundaries, link deliveries,
host service completions — is an event on this clock, which makes runs
bit-for-bit reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

from repro.errors import ClockError

__all__ = ["Clock", "Event"]


class Event:
    """Handle to a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "seq")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the clock skips it when its time comes."""
        self.cancelled = True


class Clock:
    """An event loop over virtual time.

    Events scheduled for the same instant fire in scheduling order
    (FIFO tie-break via a sequence number), which keeps multi-node
    interval boundaries deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule a callback at an absolute virtual time."""
        if not math.isfinite(time):
            raise ClockError(f"cannot schedule at non-finite time {time}")
        if time < self._now:
            raise ClockError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = Event(time, next(self._seq), callback)
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def step(self) -> bool:
        """Fire the next event; return False if the queue is empty."""
        while self._queue:
            time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            self.events_fired += 1
            event.callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Drain the event queue (optionally capped)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                return

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
