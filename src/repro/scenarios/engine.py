"""Binding a scenario to a run: validation and per-window state.

A :class:`~repro.scenarios.scenario.Scenario` is pure data; this
module turns it into something an engine can act on.
:class:`ScenarioEngine` binds one scenario to a concrete logical tree
and base rate schedule, validates every event against them *loudly at
construction* (unknown nodes, unknown sub-streams, windows that take
every source offline — all fail before a single item is emitted), and
compiles the timeline into a :class:`WindowState` per window:

* effective per-sub-stream arrival rates (bursts/ramps/waves
  multiplied together, then skew drift re-shares the total);
* the set of offline nodes (churn), from which the engine derives
  weight-preserving re-parenting (children route to the nearest live
  ancestor, each batch keeping its ``W_in``);
* per-uplink degradation (:class:`LinkState`): seeded batch loss and
  straggler delay in windows.

``state_for`` is a pure function of the window index, so every worker
shard recomputes the identical timeline from the scenario alone — no
cross-process coordination, which is what keeps scenario runs
deterministic and ``inline == multiprocess`` under churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError
from repro.scenarios.events import (
    LinkDegrade,
    NodeChurn,
    RateBurst,
    RateRamp,
    RateWave,
    SkewDrift,
)
from repro.scenarios.scenario import Scenario
from repro.topology.tree import LogicalTree
from repro.workloads.rates import RateSchedule

__all__ = ["LinkState", "WindowState", "ScenarioEngine"]

_RATE_EVENTS = (RateBurst, RateRamp, RateWave)


@dataclass(frozen=True, slots=True)
class LinkState:
    """Composed degradation of one uplink at one window.

    Overlapping :class:`~repro.scenarios.events.LinkDegrade` events
    compose: losses combine as independent drops
    (``1 - (1-a)(1-b)``) and straggler delays add.

    Attributes:
        loss: Per-batch drop probability in ``[0, 1)``.
        delay_windows: Whole windows of straggler delay.
    """

    loss: float = 0.0
    delay_windows: int = 0

    def compose(self, event: LinkDegrade) -> "LinkState":
        """This state with one more degradation event folded in."""
        return LinkState(
            loss=1.0 - (1.0 - self.loss) * (1.0 - event.loss),
            delay_windows=self.delay_windows + event.delay_windows,
        )


@dataclass(frozen=True, slots=True)
class WindowState:
    """Everything the engine must apply before running one window.

    Attributes:
        window: The window index this state describes.
        rates: Effective per-sub-stream arrival rates (items/second)
            after every rate event and drift.
        offline: Names of tree nodes offline this window.
        degraded: Per-node uplink degradation (absent = healthy).
    """

    window: int
    rates: Mapping[str, float]
    offline: frozenset[str]
    degraded: Mapping[str, LinkState]

    @property
    def is_steady(self) -> bool:
        """True when the window needs no engine intervention."""
        return not self.offline and not self.degraded

    def rate_multiplier(self, base: RateSchedule) -> float:
        """Aggregate offered-load multiplier vs a base schedule."""
        base_total = base.total_rate
        if base_total == 0:
            return 1.0
        return sum(self.rates.values()) / base_total


class ScenarioEngine:
    """One scenario bound to a concrete tree and rate schedule."""

    def __init__(
        self,
        scenario: Scenario,
        tree: LogicalTree,
        schedule: RateSchedule,
    ) -> None:
        self.scenario = scenario
        self._tree = tree
        self._schedule = schedule
        self._substreams = sorted(schedule.rates)
        self._non_root = frozenset(
            name for name in tree.nodes if name != "root"
        )
        self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        """Reject events that reference things this run does not have."""
        known = set(self._substreams)
        for event in self.scenario.events:
            streams = getattr(event, "substreams", None)
            if streams is not None:
                unknown = sorted(set(streams) - known)
                if unknown:
                    raise ConfigurationError(
                        f"scenario {self.scenario.name!r}: event "
                        f"{type(event).__name__} targets unknown "
                        f"sub-streams {unknown}; schedule has "
                        f"{self._substreams}"
                    )
            if isinstance(event, SkewDrift):
                unknown = sorted(set(event.to_shares) - known)
                if unknown:
                    raise ConfigurationError(
                        f"scenario {self.scenario.name!r}: drift targets "
                        f"unknown sub-streams {unknown}; schedule has "
                        f"{self._substreams}"
                    )
            nodes = getattr(event, "nodes", None)
            if nodes is not None:
                unknown = sorted(set(nodes) - set(self._tree.nodes))
                if unknown:
                    raise ConfigurationError(
                        f"scenario {self.scenario.name!r}: event "
                        f"{type(event).__name__} names unknown tree "
                        f"nodes {unknown}"
                    )
        source_names = {node.name for node in self._tree.sources}
        for window in range(self.scenario.windows):
            offline = self._offline_at(window)
            if source_names <= offline:
                raise ConfigurationError(
                    f"scenario {self.scenario.name!r}: window {window} "
                    f"takes every source offline; at least one source "
                    f"must stay live"
                )

    # ------------------------------------------------------------------
    # Per-window compilation
    # ------------------------------------------------------------------
    def _offline_at(self, window: int) -> frozenset[str]:
        offline: set[str] = set()
        for event in self.scenario.events_of(NodeChurn):
            offline.update(event.offline(window))
        return frozenset(offline)

    def _rates_at(self, window: int) -> dict[str, float]:
        """Rate events multiply, then drifts re-share the total."""
        rates = {
            s: float(self._schedule.rates[s]) for s in self._substreams
        }
        for event in self.scenario.events_of(*_RATE_EVENTS):
            factor = event.multiplier(window)
            if factor == 1.0:
                continue
            targets = event.substreams or self._substreams
            for substream in targets:
                rates[substream] *= factor
        total = sum(rates.values())
        if total > 0:
            shares = {s: rate / total for s, rate in rates.items()}
            for drift in self.scenario.events_of(SkewDrift):
                t = drift.progress(window)
                if t == 0.0:
                    continue
                target = drift.normalized_shares()
                shares = {
                    s: (1.0 - t) * share + t * target.get(s, 0.0)
                    for s, share in shares.items()
                }
            rates = {s: share * total for s, share in shares.items()}
        return rates

    def _degraded_at(self, window: int) -> dict[str, LinkState]:
        degraded: dict[str, LinkState] = {}
        for event in self.scenario.events_of(LinkDegrade):
            if not event.active(window):
                continue
            targets = (
                event.nodes if event.nodes is not None
                else sorted(self._non_root)
            )
            for node in targets:
                degraded[node] = degraded.get(node, LinkState()).compose(event)
        return degraded

    def state_for(self, window: int) -> WindowState:
        """Compile the scenario's state for one window (pure function).

        Windows past the scenario's declared length hold the timeline's
        tail: rate events have all ended (multiplier 1), drifts hold
        their final mix, churned nodes have rejoined and links have
        recovered — steady state in the post-scenario world.
        """
        if window < 0:
            raise ConfigurationError(f"window must be >= 0, got {window}")
        return WindowState(
            window=window,
            rates=self._rates_at(window),
            offline=self._offline_at(window),
            degraded=self._degraded_at(window),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def tree(self) -> LogicalTree:
        """The logical tree this scenario is bound to."""
        return self._tree

    @property
    def schedule(self) -> RateSchedule:
        """The base (pre-scenario) rate schedule."""
        return self._schedule
