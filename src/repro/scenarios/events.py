"""Typed scenario events — the vocabulary of dynamic workloads.

A scenario is a seeded timeline of these events. Every event is a
frozen dataclass spanning a half-open window interval
``[start_window, end_window)``; what happens inside the interval is
the event's *shape*:

* :class:`RateBurst` / :class:`RateRamp` / :class:`RateWave` —
  modulate the arrival-rate schedule (flash crowds, ramp-ups,
  diurnal cycles).
* :class:`SkewDrift` — re-weight the sub-stream population mix
  mid-run while preserving the total offered rate (the workload the
  paper's stratified reservoirs exist to survive).
* :class:`NodeChurn` — edge nodes (sources or sampling nodes) leave
  the tree for the interval and rejoin after it; live traffic
  re-parents around the hole.
* :class:`LinkDegrade` — a node's uplink loses batches or straggles
  (delivers a window late).

Events are pure data: all interpretation — composition, validation
against a concrete tree/schedule, per-window state — lives in
:mod:`repro.scenarios.engine`. Because an event is a pure function of
the window index, any process (worker shards included) can recompute
the same timeline independently, which is what keeps scenario runs
deterministic and ``inline == multiprocess``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from repro.errors import ConfigurationError

__all__ = [
    "RateBurst",
    "RateRamp",
    "RateWave",
    "SkewDrift",
    "NodeChurn",
    "LinkDegrade",
    "ScenarioEvent",
]


def _check_interval(start_window: int, end_window: int) -> None:
    """Shared event-interval validation (half-open, non-empty)."""
    if start_window < 0:
        raise ConfigurationError(
            f"event start_window must be >= 0, got {start_window}"
        )
    if end_window <= start_window:
        raise ConfigurationError(
            f"event interval must be non-empty: "
            f"[{start_window}, {end_window})"
        )


@dataclass(frozen=True, slots=True)
class RateBurst:
    """Multiply arrival rates by a constant factor for an interval.

    Attributes:
        start_window: First window (inclusive) the burst applies to.
        end_window: First window after the burst (exclusive).
        factor: Rate multiplier (> 0); ``4.0`` quadruples the load.
        substreams: Sub-streams the burst applies to (``None`` = all).
    """

    start_window: int
    end_window: int
    factor: float
    substreams: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if not 0 < self.factor < math.inf:
            raise ConfigurationError(
                f"burst factor must be positive and finite, got {self.factor}"
            )

    def multiplier(self, window: int) -> float:
        """The burst's rate multiplier at one window (1.0 outside)."""
        if self.start_window <= window < self.end_window:
            return self.factor
        return 1.0


@dataclass(frozen=True, slots=True)
class RateRamp:
    """Linearly interpolate the rate multiplier across an interval.

    At window ``w`` in ``[start_window, end_window)`` the multiplier is
    ``start_factor + t * (end_factor - start_factor)`` with
    ``t = (w - start_window) / (end_window - start_window)`` — the ramp
    *approaches* ``end_factor`` but hands over to whatever follows at
    ``end_window`` (stack a :class:`RateBurst` after an up-ramp to hold
    the plateau).

    Attributes:
        start_window: First window (inclusive) of the ramp.
        end_window: First window after the ramp (exclusive).
        start_factor: Multiplier at ``start_window`` (> 0).
        end_factor: Multiplier the ramp approaches (> 0).
        substreams: Sub-streams the ramp applies to (``None`` = all).
    """

    start_window: int
    end_window: int
    start_factor: float
    end_factor: float
    substreams: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if not (0 < self.start_factor < math.inf
                and 0 < self.end_factor < math.inf):
            raise ConfigurationError(
                f"ramp factors must be positive and finite, got "
                f"{self.start_factor} -> {self.end_factor}"
            )

    def multiplier(self, window: int) -> float:
        """The ramp's rate multiplier at one window (1.0 outside)."""
        if not self.start_window <= window < self.end_window:
            return 1.0
        t = (window - self.start_window) / (self.end_window - self.start_window)
        return self.start_factor + t * (self.end_factor - self.start_factor)


@dataclass(frozen=True, slots=True)
class RateWave:
    """A sinusoidal rate cycle — the diurnal day/night pattern.

    The multiplier starts at ``low`` (trough) at ``start_window``,
    peaks at ``high`` half a period later and returns to ``low`` each
    ``period_windows`` windows:
    ``mid - amplitude * cos(2π (w - start) / period)``.

    Attributes:
        start_window: First window (inclusive) of the cycle.
        end_window: First window after the cycle (exclusive).
        period_windows: Length of one full cycle, in windows (> 0).
        low: Trough multiplier (> 0).
        high: Peak multiplier (>= low).
        substreams: Sub-streams the wave applies to (``None`` = all).
    """

    start_window: int
    end_window: int
    period_windows: float
    low: float
    high: float
    substreams: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if self.period_windows <= 0:
            raise ConfigurationError(
                f"wave period must be positive, got {self.period_windows}"
            )
        if not 0 < self.low <= self.high < math.inf:
            raise ConfigurationError(
                f"wave needs 0 < low <= high < inf, got "
                f"low={self.low}, high={self.high}"
            )

    def multiplier(self, window: int) -> float:
        """The wave's rate multiplier at one window (1.0 outside)."""
        if not self.start_window <= window < self.end_window:
            return 1.0
        mid = (self.high + self.low) / 2.0
        amplitude = (self.high - self.low) / 2.0
        phase = 2.0 * math.pi * (window - self.start_window) / self.period_windows
        return mid - amplitude * math.cos(phase)


@dataclass(frozen=True, slots=True)
class SkewDrift:
    """Drift the sub-stream population mix while preserving total rate.

    Over ``[start_window, end_window)`` the per-sub-stream *shares* of
    the total offered rate interpolate linearly from the schedule's
    baseline mix toward ``to_shares``; from ``end_window`` on the new
    mix holds for the rest of the run (drift does not snap back). The
    total rate is preserved at every window, so drift changes *which*
    sub-streams carry the volume, not how much volume there is —
    exactly the condition under which plain SRS starts missing
    newly-rare strata.

    Attributes:
        start_window: First window (inclusive) of the drift.
        end_window: Window at which ``to_shares`` is fully reached.
        to_shares: Target share per sub-stream. Shares are normalized;
            sub-streams absent from the mapping get share 0 at the end
            of the drift.
    """

    start_window: int
    end_window: int
    to_shares: Mapping[str, float]

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if not self.to_shares:
            raise ConfigurationError("drift needs at least one target share")
        if any(share < 0 for share in self.to_shares.values()):
            raise ConfigurationError(
                f"drift shares must be >= 0, got {dict(self.to_shares)}"
            )
        if sum(self.to_shares.values()) <= 0:
            raise ConfigurationError("drift shares must sum to > 0")
        # Freeze the mapping so the event stays hashable/immutable.
        object.__setattr__(self, "to_shares", dict(self.to_shares))

    def progress(self, window: int) -> float:
        """Drift progress in [0, 1] at one window (1.0 after the end)."""
        if window < self.start_window:
            return 0.0
        if window >= self.end_window:
            return 1.0
        return (window - self.start_window) / (
            self.end_window - self.start_window
        )

    def normalized_shares(self) -> dict[str, float]:
        """The target mix with shares scaled to sum to 1."""
        total = sum(self.to_shares.values())
        return {s: share / total for s, share in self.to_shares.items()}


@dataclass(frozen=True, slots=True)
class NodeChurn:
    """Named edge nodes leave the tree for an interval, then rejoin.

    An offline *source* stops emitting (its volume is genuinely lost —
    ground truth shrinks with it). An offline *sampling* node is routed
    around: traffic that would cross it re-parents to its nearest live
    ancestor, which keeps every batch's ``(W_in, items)`` pair intact —
    weights ride with the batches, so the Eq. 8 count invariant
    survives re-parenting unchanged. The root cannot churn.

    Attributes:
        start_window: First window (inclusive) the nodes are offline.
        end_window: First window (exclusive) after the nodes rejoin.
        nodes: Tree node names (e.g. ``("source-5", "l1-1")``).
    """

    start_window: int
    end_window: int
    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if not self.nodes:
            raise ConfigurationError("churn needs at least one node")
        if "root" in self.nodes:
            raise ConfigurationError(
                "the root (datacenter) cannot churn; every scenario "
                "needs a live query endpoint"
            )
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def offline(self, window: int) -> tuple[str, ...]:
        """The nodes this event takes offline at one window."""
        if self.start_window <= window < self.end_window:
            return self.nodes
        return ()


@dataclass(frozen=True, slots=True)
class LinkDegrade:
    """Degrade the uplink of named nodes for an interval.

    Two degradation axes, freely combined:

    * ``loss`` — each batch crossing the uplink is dropped with this
      probability (``tc netem loss``-style; seeded, so runs stay
      reproducible). Dropped data is *destroyed*: the estimator cannot
      see it, so expect loss spikes beyond the error bound on degraded
      windows.
    * ``delay_windows`` — the straggler axis: batches crossing the
      uplink arrive that many windows late, smearing mass into later
      windows (paired under/over-shoot spikes). Batches whose delay
      outlives the run are neither sampled nor counted as dropped —
      they are still in flight when the run ends.

    Attributes:
        start_window: First window (inclusive) of the degradation.
        end_window: First window (exclusive) after recovery.
        nodes: Nodes whose uplink degrades (``None`` = every uplink).
        loss: Per-batch drop probability in ``[0, 1)``.
        delay_windows: Whole windows of straggler delay (>= 0).
    """

    start_window: int
    end_window: int
    nodes: tuple[str, ...] | None = None
    loss: float = 0.0
    delay_windows: int = 0

    def __post_init__(self) -> None:
        _check_interval(self.start_window, self.end_window)
        if not 0.0 <= self.loss < 1.0:
            raise ConfigurationError(
                f"link loss must be in [0, 1), got {self.loss}"
            )
        if self.delay_windows < 0:
            raise ConfigurationError(
                f"delay_windows must be >= 0, got {self.delay_windows}"
            )
        if self.loss == 0.0 and self.delay_windows == 0:
            raise ConfigurationError(
                "LinkDegrade with no loss or delay is a no-op"
            )
        if self.nodes is not None:
            if not self.nodes:
                raise ConfigurationError(
                    "LinkDegrade nodes must be None (all uplinks) or non-empty"
                )
            if "root" in self.nodes:
                raise ConfigurationError(
                    "the root has no uplink to degrade"
                )
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def active(self, window: int) -> bool:
        """Whether the degradation applies at one window."""
        return self.start_window <= window < self.end_window


#: Every event type a :class:`~repro.scenarios.scenario.Scenario`
#: timeline may carry.
ScenarioEvent = Union[
    RateBurst, RateRamp, RateWave, SkewDrift, NodeChurn, LinkDegrade
]
