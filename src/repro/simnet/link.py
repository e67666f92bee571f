"""Simulated network links with delay, bandwidth and FIFO queueing.

A link transfer experiences (i) queueing behind earlier transfers on
the same link, (ii) serialization delay ``bytes * 8 / rate``, and
(iii) propagation delay. The link keeps byte/message counters so the
experiments can report bandwidth consumption and saving (paper Fig. 7).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.simnet.clock import Clock
from repro.simnet.netem import NetemConfig
from repro.errors import NetworkError

__all__ = ["Link"]


class Link:
    """A unidirectional point-to-point link driven by the shared clock."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        config: NetemConfig,
        rng: random.Random | None = None,
    ) -> None:
        self.name = name
        self._clock = clock
        self._config = config
        # Seeded from the name itself: str hashes are salted per process.
        self._rng = rng if rng is not None else random.Random(f"link:{name}")
        self._wire_free_at = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.total_queueing_delay = 0.0

    @property
    def config(self) -> NetemConfig:
        """The shaping parameters of this link."""
        return self._config

    def reconfigure(self, config: NetemConfig) -> None:
        """Apply new shaping parameters (takes effect for new transfers)."""
        self._config = config

    def transfer(
        self,
        size_bytes: int,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> float | None:
        """Send a message; schedule ``deliver(payload)`` at arrival time.

        Returns the simulated arrival time, or ``None`` when netem loss
        drops the message (the drop still burns serialization time, as
        a lost packet does on a real wire). Transfers are FIFO: a
        message must wait for the wire to drain earlier messages
        (queueing), then occupies the wire for its serialization time,
        then propagates for the configured delay.
        """
        if size_bytes < 0:
            raise NetworkError(f"message size must be >= 0, got {size_bytes}")
        now = self._clock.now
        start = max(now, self._wire_free_at)
        self.total_queueing_delay += start - now
        serialization = self._config.serialization_delay(size_bytes)
        self._wire_free_at = start + serialization
        arrival = self._wire_free_at + self._config.delay_seconds
        self.bytes_sent += size_bytes
        if self._config.loss > 0.0 and self._rng.random() < self._config.loss:
            self.messages_dropped += 1
            return None
        self.messages_sent += 1
        self._clock.schedule_at(arrival, lambda: deliver(payload))
        return arrival

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over an elapsed wall-clock span."""
        if elapsed <= 0:
            raise NetworkError(f"elapsed must be positive, got {elapsed}")
        capacity_bytes = self._config.rate_bps * elapsed / 8.0
        return min(1.0, self.bytes_sent / capacity_bytes)

    def reset_counters(self) -> None:
        """Zero the byte/message counters (shaping state unchanged)."""
        self.bytes_sent = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.total_queueing_delay = 0.0
