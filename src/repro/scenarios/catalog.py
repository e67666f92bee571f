"""The built-in scenario catalog.

Six ready-to-run scenarios covering the dynamic-workload axes the
paper's pitch rests on: rate fluctuation (flash crowds, diurnal
cycles), population drift, node churn and degraded links. All assume
the paper's evaluation setup — the 4-layer tree
(``source-0..7 / l1-0..3 / l2-0..1 / root``) and sub-streams
``A``–``D`` — which is what every experiment runner and the
``repro scenarios`` CLI use; binding one to a different tree or
schedule fails loudly at :class:`~repro.scenarios.engine.ScenarioEngine`
construction.

See ``docs/SCENARIOS.md`` for each scenario's expected
quality-over-time behaviour.
"""

from __future__ import annotations

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

__all__ = ["BUILTIN_SCENARIOS", "get_scenario", "scenario_names"]


def _builtin(*scenarios: Scenario) -> dict[str, Scenario]:
    return {scenario.name: scenario for scenario in scenarios}


#: Name -> scenario for every built-in, in catalog order.
BUILTIN_SCENARIOS: dict[str, Scenario] = _builtin(
    Scenario(
        name="steady",
        description="static rates on a healthy tree (the control run)",
        windows=12,
    ),
    Scenario(
        name="flash-crowd",
        description="load ramps to 4x, holds, then ramps back down",
        windows=12,
        events=(
            RateRamp(2, 4, 1.0, 4.0),
            RateBurst(4, 7, 4.0),
            RateRamp(7, 9, 4.0, 1.0),
        ),
    ),
    Scenario(
        name="diurnal",
        description="one sinusoidal day/night cycle (0.4x..1.8x)",
        windows=12,
        events=(RateWave(0, 12, period_windows=12.0, low=0.4, high=1.8),),
    ),
    Scenario(
        name="drift",
        description="population mix drifts from uniform to A-heavy skew",
        windows=12,
        events=(
            SkewDrift(
                2, 9,
                to_shares={"A": 0.55, "B": 0.25, "C": 0.15, "D": 0.05},
            ),
        ),
    ),
    Scenario(
        name="churn",
        description="staggered node outages: an L1 node, a source, an L2 node",
        windows=12,
        events=(
            NodeChurn(3, 6, ("l1-1",)),
            NodeChurn(5, 9, ("source-5",)),
            NodeChurn(8, 11, ("l2-0",)),
        ),
    ),
    Scenario(
        name="brownout",
        description="lossy uplink + a straggler link under a mild burst",
        windows=12,
        events=(
            RateBurst(4, 7, 1.5),
            LinkDegrade(3, 7, ("source-6",), loss=0.2),
            LinkDegrade(5, 7, ("source-7",), delay_windows=1),
        ),
    ),
)


def scenario_names() -> list[str]:
    """Built-in scenario names, in catalog order."""
    return list(BUILTIN_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a built-in scenario by name (loudly on a miss)."""
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; built-ins: {scenario_names()}"
        ) from None
