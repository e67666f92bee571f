"""Scenario runner — dynamic-workload runs with quality-over-time metrics.

:class:`ScenarioRunner` drives the statistical engine through a
:class:`~repro.scenarios.scenario.Scenario` timeline and measures, per
window, how the approximate answer held up while the world misbehaved:
accuracy loss against the §III-D error bound (the paper's Eq. 9 "result
± error" contract), sample-budget utilisation, offered-load multiplier,
offline nodes and link drops. The per-window rows render as a
paper-style table through :mod:`repro.metrics.report`, which is what
``python -m repro scenarios run <name>`` prints.

Any engine configuration runs any scenario: budget controller and
worker shards compose — a fixed ``(seed, scenario, workers)`` triple is
bit-reproducible. Link degradation (batch loss, straggler delay) acts
on the statistical engine's in-process tree; the deployment simulator
does not run scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost import FractionBudget
from repro.engine.runner import WindowOutcome
from repro.errors import PipelineError
from repro.metrics.report import Table, format_percent, format_ratio
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.scenario import Scenario
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.rates import RateSchedule
from repro.workloads.source import ItemGenerator

__all__ = ["ScenarioWindow", "ScenarioOutcome", "ScenarioRunner"]


@dataclass(frozen=True, slots=True)
class ScenarioWindow:
    """Quality metrics for one window of a scenario run.

    Attributes:
        window: 1-based window index (empty windows keep their slot).
        rate_multiplier: Offered load vs the base schedule this window.
        offline_nodes: Tree nodes the scenario kept offline.
        degraded_links: Uplinks under loss/delay degradation.
        items_emitted: Ground-truth items emitted this window.
        items_sampled: Items physically reaching the root (ApproxIoT).
        items_dropped: Items destroyed on degraded links.
        exact_sum: Ground-truth SUM over the window's emissions.
        approx_sum: ApproxIoT's estimate.
        error_bound: Absolute half-width of the confidence interval.
        approxiot_loss: ApproxIoT accuracy loss (%).
        srs_loss: The SRS baseline's accuracy loss (%).
        budget_utilisation: ``items_sampled`` over the steady-state
            root budget — >= 1 when bursts saturate the reservoir,
            < 1 when churn or loss starve it.
        budget: The root's sample budget in effect for the window —
            the budget controller's live decision, constant under
            ``static``, a visible trace under adaptive controllers.
        shard_restarts: Worker shards the supervisor respawned while
            this window's round ran (0 in healthy and single-worker
            runs) — execution-substrate faults surfaced alongside the
            workload faults the scenario itself injects.
        shards_lost: Worker shards missing from this window's merge
            under ``on_shard_loss="degrade"`` (their expected items
            are already counted into ``items_dropped``).
    """

    window: int
    rate_multiplier: float
    offline_nodes: int
    degraded_links: int
    items_emitted: int
    items_sampled: int
    items_dropped: int
    exact_sum: float
    approx_sum: float
    error_bound: float
    approxiot_loss: float
    srs_loss: float
    budget_utilisation: float
    budget: int = 0
    shard_restarts: int = 0
    shards_lost: int = 0

    @property
    def bound_pct(self) -> float:
        """The error bound as a percentage of the exact sum."""
        if self.exact_sum == 0:
            raise PipelineError("bound undefined for a zero exact sum")
        return 100.0 * self.error_bound / abs(self.exact_sum)

    @property
    def within_bound(self) -> bool:
        """Whether the exact answer fell inside ``result ± error``."""
        return self.approxiot_loss <= self.bound_pct


@dataclass
class ScenarioOutcome:
    """All windows of one scenario run plus aggregate quality."""

    scenario: Scenario
    windows: list[ScenarioWindow] = field(default_factory=list)
    empty_windows: int = 0

    def _require_windows(self) -> None:
        if not self.windows:
            raise PipelineError("scenario run produced no windows")

    @property
    def mean_approxiot_loss(self) -> float:
        """Mean ApproxIoT accuracy loss (%) across windows."""
        self._require_windows()
        return sum(w.approxiot_loss for w in self.windows) / len(self.windows)

    @property
    def mean_srs_loss(self) -> float:
        """Mean SRS accuracy loss (%) across windows."""
        self._require_windows()
        return sum(w.srs_loss for w in self.windows) / len(self.windows)

    @property
    def mean_bound_pct(self) -> float:
        """Mean reported error bound (%) across windows."""
        self._require_windows()
        return sum(w.bound_pct for w in self.windows) / len(self.windows)

    @property
    def within_bound_fraction(self) -> float:
        """Fraction of windows whose exact answer the interval covered."""
        self._require_windows()
        covered = sum(1 for w in self.windows if w.within_bound)
        return covered / len(self.windows)

    @property
    def items_dropped(self) -> int:
        """Items destroyed on degraded links over the whole run."""
        return sum(w.items_dropped for w in self.windows)

    def report(self) -> str:
        """The per-window quality-over-time table, paper-style."""
        self._require_windows()
        table = Table(
            f"Scenario '{self.scenario.name}' — quality over time",
            [
                "window", "load", "offline", "dropped", "emitted",
                "sampled", "budget", "budget use", "loss", "bound",
                "in bound", "srs loss", "restarts", "lost",
            ],
        )
        for w in self.windows:
            table.add_row(
                w.window,
                format_ratio(w.rate_multiplier),
                w.offline_nodes,
                w.items_dropped,
                w.items_emitted,
                w.items_sampled,
                w.budget,
                format_ratio(w.budget_utilisation),
                format_percent(w.approxiot_loss, 3),
                format_percent(w.bound_pct, 3),
                "yes" if w.within_bound else "NO",
                format_percent(w.srs_loss, 3),
                w.shard_restarts,
                w.shards_lost,
            )
        return table.render()

    def summary(self) -> str:
        """One-line aggregate: mean loss vs bound, coverage, drops."""
        self._require_windows()
        return (
            f"{self.scenario.name}: mean loss "
            f"{format_percent(self.mean_approxiot_loss, 3)} vs mean bound "
            f"{format_percent(self.mean_bound_pct, 3)}; "
            f"{self.within_bound_fraction:.0%} of windows in bound; "
            f"srs mean loss {format_percent(self.mean_srs_loss, 3)}; "
            f"{self.items_dropped} items dropped on degraded links"
        )


class ScenarioRunner:
    """Drives one scenario over the statistical engine, any config.

    Construction validates the scenario's events against the run's
    tree and schedule loudly. With ``config.workers > 1`` the run shards
    across OS processes exactly like a static run; every shard
    recomputes the identical scenario timeline, and :meth:`close` (or
    the context-manager form) reaps the shard processes even when
    churn leaves windows empty.
    """

    def __init__(
        self,
        config: PipelineConfig,
        schedule: RateSchedule,
        generators: dict[str, ItemGenerator],
        scenario: Scenario,
    ) -> None:
        self._config = config
        self._scenario = scenario
        # The parent-side timeline view: validates the scenario against
        # the *base* schedule/tree before any engine (or shard process)
        # is built, and annotates per-window rows during the run.
        self._timeline = ScenarioEngine(scenario, config.tree, schedule)
        self._schedule = schedule
        window_volume = int(round(schedule.total_rate * config.window_seconds))
        self._reference_budget = FractionBudget(
            config.sampling_fraction
        ).sample_size(window_volume)
        #: Window slots driven so far — repeated :meth:`run` calls
        #: continue the timeline where the previous call stopped.
        self._slots_run = 0
        #: Supervisor restarts seen so far (sharded runs): the delta
        #: per window becomes the trace's "restarts" column.
        self._restarts_seen = 0
        # All engine wiring (worker-shard dispatch, transport,
        # scenario binding) lives in StatisticalRunner; this facade
        # only adds the timeline annotation and quality metrics.
        self._runner = StatisticalRunner(
            config, schedule, generators, scenario=scenario
        )

    @property
    def scenario(self) -> Scenario:
        """The scenario this runner executes."""
        return self._scenario

    @property
    def timeline(self) -> ScenarioEngine:
        """The bound per-window timeline (parent-side view)."""
        return self._timeline

    def run(self, windows: int | None = None) -> ScenarioOutcome:
        """Run the scenario and collect per-window quality metrics.

        ``windows`` defaults to the scenario's declared length. Windows
        in which churn/rate events left nothing emitted keep their slot
        (the timeline stays aligned) but contribute no metrics row.
        """
        windows = windows if windows is not None else self._scenario.windows
        if windows <= 0:
            raise PipelineError(f"window count must be >= 1, got {windows}")
        outcome = ScenarioOutcome(scenario=self._scenario)
        try:
            for _ in range(windows):
                state = self._timeline.state_for(self._slots_run)
                window = self._runner.run_window()
                self._slots_run += 1
                if window is None:
                    outcome.empty_windows += 1
                    continue
                outcome.windows.append(self._annotate(window, state))
        except BaseException:
            # Reap worker shards when a mid-run failure aborts the
            # loop: shard processes must never outlive the scenario
            # run that spawned them.
            self.close()
            raise
        if not outcome.windows:
            raise PipelineError(
                "scenario emitted no items in any window; check the "
                "schedule rates against the scenario's events"
            )
        return outcome

    def _window_restarts(self) -> int:
        """Supervisor respawns since the previous window (sharded runs)."""
        stats = getattr(self._runner.engine, "ipc_stats", None)
        if stats is None:  # single-worker runs have no supervisor
            return 0
        delta = stats.restarts - self._restarts_seen
        self._restarts_seen = stats.restarts
        return delta

    def _annotate(self, window: WindowOutcome, state) -> ScenarioWindow:
        """One engine window + its timeline state as a metrics row."""
        return ScenarioWindow(
            window=window.window_index,
            rate_multiplier=state.rate_multiplier(self._schedule),
            offline_nodes=len(state.offline),
            degraded_links=len(state.degraded),
            items_emitted=window.items_emitted,
            items_sampled=window.items_sampled,
            items_dropped=window.items_dropped,
            exact_sum=window.exact_sum,
            approx_sum=window.approx_sum.value,
            error_bound=window.approx_sum.error,
            approxiot_loss=window.approxiot_loss,
            srs_loss=window.srs_loss,
            budget_utilisation=(
                window.items_sampled / self._reference_budget
                if self._reference_budget > 0 else 0.0
            ),
            budget=window.sample_budget,
            shard_restarts=self._window_restarts(),
            shards_lost=window.shards_lost,
        )

    def close(self) -> None:
        """Release execution resources (worker shard processes)."""
        self._runner.close()

    def __enter__(self) -> "ScenarioRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
