"""System assembly: configs, runners and the adaptive feedback loop.

Two runner facades share one configuration surface and one execution
engine (:mod:`repro.engine` — pipeline assembly, the windowed run loop
and the transports):

* :class:`~repro.system.statistical.StatisticalRunner` runs the
  sampling tree algorithmically for the accuracy experiments;
* :class:`~repro.system.deployment.DeploymentSimulator` runs the whole
  deployment (WAN links + finite hosts) for the throughput, latency
  and bandwidth experiments.

A third facade, :class:`~repro.system.scenarios.ScenarioRunner`,
drives the statistical engine through a declarative
:class:`~repro.scenarios.scenario.Scenario` timeline (rate bursts,
skew drift, node churn, degraded links) and reports per-window
quality-over-time metrics.

The §IV-B feedback loop lives in :mod:`repro.system.adaptive`: the
per-window :class:`~repro.system.adaptive.BudgetController` the engine
runs in-loop, named by ``config.budget_controller``.
"""

from repro.system.adaptive import (
    AdaptiveFractionController,
    BudgetController,
    StaticBudgetController,
    SubstreamObservation,
    VarianceAwareController,
    WindowObservation,
    make_budget_controller,
    observe_window,
)
from repro.system.config import ExecutionMode, PipelineConfig
from repro.system.deployment import DeploymentReport, DeploymentSimulator
from repro.system.scenarios import (
    ScenarioOutcome,
    ScenarioRunner,
    ScenarioWindow,
)
from repro.system.statistical import (
    RunOutcome,
    StatisticalRunner,
    WindowOutcome,
    accuracy_loss,
)

__all__ = [
    "AdaptiveFractionController",
    "BudgetController",
    "DeploymentReport",
    "DeploymentSimulator",
    "ExecutionMode",
    "PipelineConfig",
    "RunOutcome",
    "ScenarioOutcome",
    "ScenarioRunner",
    "ScenarioWindow",
    "StaticBudgetController",
    "StatisticalRunner",
    "SubstreamObservation",
    "VarianceAwareController",
    "WindowObservation",
    "WindowOutcome",
    "accuracy_loss",
    "make_budget_controller",
    "observe_window",
]
