"""``tc``-style traffic shaping configuration.

The paper emulates its WAN with the Linux ``tc`` tool: round-trip
delays of 20/40/80 ms between adjacent layers and 1 Gbps links. A
:class:`NetemConfig` captures the same two knobs (propagation delay and
rate limit) and converts between the paper's RTT figures and the
one-way delays our links apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["NetemConfig", "PAPER_WAN"]


@dataclass(frozen=True, slots=True)
class NetemConfig:
    """Delay/rate/loss shaping for one link direction.

    Attributes:
        delay_ms: One-way propagation delay in milliseconds.
        rate_bps: Link capacity in bits per second.
        loss: Probability that a message is dropped on the wire
            (``tc netem loss``-style). Defaults to a lossless link, as
            in the paper's testbed.
    """

    delay_ms: float
    rate_bps: float
    loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.delay_ms < math.inf:
            raise ConfigurationError(
                f"delay must be finite and >= 0, got {self.delay_ms}"
            )
        if not 0 < self.rate_bps < math.inf:
            raise ConfigurationError(
                f"rate must be finite and positive, got {self.rate_bps}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError(f"loss must be in [0, 1), got {self.loss}")

    @classmethod
    def from_rtt(
        cls, rtt_ms: float, rate_bps: float, loss: float = 0.0
    ) -> "NetemConfig":
        """Build from a round-trip time (one-way delay = RTT / 2)."""
        return cls(delay_ms=rtt_ms / 2.0, rate_bps=rate_bps, loss=loss)

    @property
    def delay_seconds(self) -> float:
        """One-way delay in seconds."""
        return self.delay_ms / 1000.0

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to push ``size_bytes`` onto the wire at this rate."""
        if size_bytes < 0:
            raise ConfigurationError(f"size must be >= 0, got {size_bytes}")
        return size_bytes * 8.0 / self.rate_bps


#: The paper's WAN settings (§V-A): RTTs of 20/40/80 ms between layers,
#: every link 1 Gbps.
PAPER_WAN: dict[str, NetemConfig] = {
    "source_to_l1": NetemConfig.from_rtt(20.0, 1e9),
    "l1_to_l2": NetemConfig.from_rtt(40.0, 1e9),
    "l2_to_root": NetemConfig.from_rtt(80.0, 1e9),
}
