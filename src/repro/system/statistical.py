"""Statistical pipeline runner — the accuracy experiments' facade.

Runs the full sampling tree *algorithmically* (no simulated network or
hosts): per window, sources emit batches which traverse the logical
tree bottom-up; every sampling node runs weighted hierarchical sampling
with its local budget; the root estimates SUM with error bounds. An
SRS baseline (coin-flip at the first edge layer, Horvitz-Thompson at
the root) and the exact ground truth are computed over the *same*
emitted items, so accuracy-loss comparisons are apples-to-apples.

Since the engine refactor this module is a thin facade: assembly lives
in :mod:`repro.engine.pipeline`, the windowed loop and its three
strategies in :mod:`repro.engine.runner`, and batch movement behind the
:class:`~repro.engine.transport.Transport` protocol, here always
in-process callbacks (seeded runs are transport-invariant, so a broker
hop would change nothing but cost).

With ``config.workers > 1`` the same loop runs sharded across OS
processes (:mod:`repro.engine.sharding`): each worker shard samples an
equal share of every sub-stream and the root merges per-shard Theta
state before estimating. Call :meth:`StatisticalRunner.close` (or use
the runner as a context manager) to reap shard processes.

This is the engine behind Figs. 5, 10 and 11(a).
"""

from __future__ import annotations

from repro.engine.pipeline import build_pipeline
from repro.engine.runner import (
    EngineRunner,
    RunOutcome,
    WindowOutcome,
    accuracy_loss,
)
from repro.engine.sharding import ShardedEngineRunner
from repro.engine.transport import InProcessTransport
from repro.errors import ConfigurationError
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.scenario import Scenario
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.source import ItemGenerator

__all__ = ["WindowOutcome", "RunOutcome", "StatisticalRunner", "accuracy_loss"]


class StatisticalRunner:
    """Drives the logical tree over windows of generated data.

    ``scenario`` (a :class:`~repro.scenarios.scenario.Scenario`) makes
    the run dynamic: the engine applies the scenario's per-window
    state — rate bursts, skew drift, node churn, degraded links —
    before each window, on any worker count. ``None``
    (the default) is the classic static run, bit-for-bit unchanged.
    """

    def __init__(
        self,
        config: PipelineConfig,
        schedule: RateSchedule,
        generators: dict[str, ItemGenerator],
        *,
        scenario: Scenario | None = None,
    ) -> None:
        self._config = config
        self._engine: EngineRunner | ShardedEngineRunner
        if config.workers == 1 and config.fault_plan is not None:
            raise ConfigurationError(
                "fault injection targets worker shard processes; a "
                "single-worker run executes in this process and has no "
                "shard to kill — set workers > 1 to use a fault_plan"
            )
        if config.workers > 1:
            self._engine = ShardedEngineRunner(
                config, schedule, generators, scenario=scenario
            )
        else:
            engine_scenario = None
            if scenario is not None:
                engine_scenario = ScenarioEngine(
                    scenario, config.tree, schedule
                )
            self._engine = EngineRunner(
                build_pipeline(config, schedule, generators),
                InProcessTransport(),
                scenario=engine_scenario,
            )

    @property
    def engine(self) -> EngineRunner | ShardedEngineRunner:
        """The underlying runner: in-process engine, or sharded driver."""
        return self._engine

    def run_window(self) -> WindowOutcome | None:
        """Run one window through ApproxIoT, SRS and the exact path.

        ``None`` marks a window in which no source emitted anything
        (possible intermittently when ``rate * window`` is below one
        item per source); :meth:`run` skips such windows.
        """
        return self._engine.run_window()

    def run(self, windows: int) -> RunOutcome:
        """Run several windows and collect the outcomes."""
        return self._engine.run(windows)

    def close(self) -> None:
        """Release execution resources (worker shard processes)."""
        if isinstance(self._engine, ShardedEngineRunner):
            self._engine.close()

    def __enter__(self) -> "StatisticalRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
