"""Declarative dynamic-workload scenarios (bursts, drift, churn, brownouts).

A :class:`~repro.scenarios.scenario.Scenario` is a seeded timeline of
typed events — rate bursts/ramps/waves, skew drift, node churn and
link degradation — that any engine configuration (strategy, backend,
worker shards) can run.
:class:`~repro.scenarios.engine.ScenarioEngine` binds a scenario to a
concrete tree + rate schedule and compiles per-window state; the
built-in catalog behind ``repro scenarios run|list`` lives in
:mod:`repro.scenarios.catalog`; the run loop that applies the state
and reports per-window quality metrics is
:class:`repro.system.scenarios.ScenarioRunner`.
"""

from repro.scenarios.catalog import (
    BUILTIN_SCENARIOS,
    get_scenario,
    scenario_names,
)
from repro.scenarios.engine import LinkState, ScenarioEngine, WindowState
from repro.scenarios.events import (
    LinkDegrade,
    NodeChurn,
    RateBurst,
    RateRamp,
    RateWave,
    ScenarioEvent,
    SkewDrift,
)
from repro.scenarios.scenario import Scenario

__all__ = [
    "Scenario",
    "ScenarioEvent",
    "RateBurst",
    "RateRamp",
    "RateWave",
    "SkewDrift",
    "NodeChurn",
    "LinkDegrade",
    "ScenarioEngine",
    "WindowState",
    "LinkState",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "scenario_names",
]
