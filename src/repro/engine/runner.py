"""The windowed run loop — one loop, three strategies, any transport.

Per window, sources emit batches which traverse the logical tree
bottom-up over the configured :class:`~repro.engine.transport.Transport`.
What each sampling node does with its interval inbox is the *strategy*:

* ``approxiot`` — weighted hierarchical sampling (Algorithm 1) with the
  node's local budget; the root accumulates ``(W_out, I)`` pairs in
  Theta and estimates SUM with error bounds.
* ``srs`` — coin-flip sampling at the first edge layer, pass-through
  above, Horvitz-Thompson scaling at the root (the paper's baseline).
* ``native`` — nothing sampled: the ground truth, computed directly as
  the sum of every emitted value.

:class:`EngineRunner` runs all three strategies over the *same* emitted
items each window, so accuracy-loss comparisons are apples-to-apples —
this is the engine behind Figs. 5, 10 and 11(a), and the deployment
simulator reuses its per-interval sampling step for Figs. 6-9, 11(b).

With a bound :class:`~repro.scenarios.engine.ScenarioEngine` the same
loop runs *dynamic* workloads: before each window the runner applies
the scenario's compiled state — effective source rates (bursts, skew
drift), offline nodes (churn; batches re-parent to the nearest live
ancestor) and degraded uplinks (seeded batch loss, straggler delays
that deliver whole windows late). Scenario state is a pure function of
the window index, so seeded scenario runs stay deterministic on every
transport and worker-shard count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.columns import masked_sum
from repro.core.error_bounds import ApproximateResult, estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.core.srs import coin_flips
from repro.core.whs import whsamp_batches
from repro.engine.pipeline import Pipeline
from repro.engine.transport import Transport
from repro.errors import PipelineError

if TYPE_CHECKING:  # import cycle is only structural: scenarios are data
    from repro.core.columns import ColumnarBatch
    from repro.scenarios.engine import ScenarioEngine, WindowState

__all__ = [
    "WindowOutcome",
    "RunOutcome",
    "ApproxIoTWindow",
    "SampledWindow",
    "EngineRunner",
    "accuracy_loss",
    "sample_interval",
]


def accuracy_loss(approx: float, exact: float) -> float:
    """The paper's accuracy metric: ``|approx - exact| / exact`` (in %)."""
    if exact == 0:
        raise PipelineError("accuracy loss undefined for a zero exact value")
    return 100.0 * abs(approx - exact) / abs(exact)


@dataclass(frozen=True, slots=True)
class WindowOutcome:
    """Per-window results across the three systems.

    Attributes:
        window_index: Sequence number of the window.
        exact_sum: Ground-truth sum over every emitted item.
        approx_sum: ApproxIoT's estimate with error bounds.
        srs_sum: The SRS baseline's Horvitz-Thompson estimate.
        items_emitted: Ground-truth item count for the window.
        items_sampled: Items physically reaching the root (ApproxIoT).
        items_dropped: Items destroyed on degraded links this window
            (0 outside scenario runs — healthy links drop nothing).
        sample_budget: The root's per-interval sample budget in effect
            for this window — the budget controller's live decision
            (0 only in legacy constructions that predate controllers).
        shards_lost: Worker shards missing from this window's merge
            (non-zero only in sharded runs degrading after shard loss
            under ``on_shard_loss="degrade"``). The lost shards'
            expected items are counted into ``items_dropped`` and the
            error bound is recomputed from the surviving Theta — the
            estimate stays honest about what it no longer covers.
    """

    window_index: int
    exact_sum: float
    approx_sum: ApproximateResult
    srs_sum: float
    items_emitted: int
    items_sampled: int
    items_dropped: int = 0
    sample_budget: int = 0
    shards_lost: int = 0

    @property
    def approxiot_loss(self) -> float:
        """ApproxIoT accuracy loss (%) for this window."""
        return accuracy_loss(self.approx_sum.value, self.exact_sum)

    @property
    def srs_loss(self) -> float:
        """SRS accuracy loss (%) for this window."""
        return accuracy_loss(self.srs_sum, self.exact_sum)


@dataclass
class RunOutcome:
    """All windows of one run plus aggregate accuracy."""

    windows: list[WindowOutcome] = field(default_factory=list)

    @property
    def mean_approxiot_loss(self) -> float:
        """Mean ApproxIoT accuracy loss (%) across windows."""
        if not self.windows:
            raise PipelineError("run produced no windows")
        return sum(w.approxiot_loss for w in self.windows) / len(self.windows)

    @property
    def mean_srs_loss(self) -> float:
        """Mean SRS accuracy loss (%) across windows."""
        if not self.windows:
            raise PipelineError("run produced no windows")
        return sum(w.srs_loss for w in self.windows) / len(self.windows)

    @property
    def realized_fraction(self) -> float:
        """Fraction of emitted items that physically reached the root."""
        emitted = sum(w.items_emitted for w in self.windows)
        sampled = sum(w.items_sampled for w in self.windows)
        if emitted == 0:
            raise PipelineError("run emitted no items")
        return sampled / emitted


@dataclass(slots=True)
class ApproxIoTWindow:
    """One ApproxIoT window's root-side state (before Theta is cleared).

    Attributes:
        theta: The root's ``(W_out, I)`` accumulator for the window.
        approx: The SUM estimate with error bounds.
        sampled: Items that physically reached the root.
    """

    theta: ThetaStore
    approx: ApproximateResult
    sampled: int


@dataclass(slots=True)
class SampledWindow:
    """One window sampled into Theta and not yet estimated.

    What a worker shard ships to the parent, which estimates over the
    merged Theta (fields as on :class:`WindowOutcome`).
    """

    exact_sum: float
    srs_sum: float
    items_emitted: int
    items_dropped: int
    sample_budget: int
    theta: ThetaStore


def _estimate_window(
    theta: ThetaStore, confidence: float, scenario_run: bool
) -> ApproximateResult:
    """One window's root estimate, honest about total blackouts.

    A window in which *nothing* physically reached the root — possible
    only under scenarios, when degraded links destroy (or straggle)
    every root-bound batch — has no data to estimate from. The honest
    answer is 0 with a zero-width interval over zero samples: 100 %
    loss, never "in bound", which is exactly what a blackout costs.
    Static runs keep the loud EstimationError on an empty Theta:
    nothing can legitimately destroy root-bound batches without a
    scenario, so silence would hide a misconfiguration (e.g. budgets
    rounded to zero).
    """
    if scenario_run and len(theta) == 0:
        return ApproximateResult(
            value=0.0, error=0.0, confidence=confidence, variance=0.0,
            sampled_items=0,
        )
    return estimate_sum_with_error(theta, confidence)


def sample_interval(
    pipeline: Pipeline, node_name: str, batches: list[WeightedBatch]
) -> list[WeightedBatch]:
    """One node's interval close: Algorithm 1 under the node's budget.

    The single WHSamp step shared by every execution mode — the
    algorithmic window loop below and the deployment simulator's
    event-driven interval closes both call it, so budget, allocation
    policy and random streams are applied identically everywhere.
    """
    policy = (
        pipeline.allocation_override
        if pipeline.allocation_override is not None
        else pipeline.config.allocation_policy
    )
    return whsamp_batches(
        batches,
        pipeline.budget(node_name),
        policy=policy,
        gen=pipeline.gen,
    )


class EngineRunner:
    """Drives the assembled pipeline over windows of generated data.

    ``scenario`` (a bound
    :class:`~repro.scenarios.engine.ScenarioEngine`, or ``None`` for
    the classic static run) makes the loop dynamic: each window first
    applies the scenario's compiled state — source rates, offline
    nodes, degraded uplinks — then runs exactly as before. A ``None``
    scenario leaves every code path bit-for-bit identical to the
    pre-scenario engine.

    The per-window feedback loop lives here too: the runner builds the
    budget controller ``pipeline.config.budget_controller`` names and,
    around every window, lets it apply its decision (budgets,
    allocation override) and observe the realized root state. The
    ``static`` controller makes both steps no-ops, keeping the classic
    engine bit-for-bit. ``observe_locally=False`` disables the
    *observe* half only — worker shards run that way, because in a
    sharded run the merged-root observation is broadcast back by
    :class:`~repro.engine.sharding.ShardedEngineRunner` through
    :meth:`apply_observation` so every shard adapts on global (not
    shard-local) evidence.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        transport: Transport,
        scenario: "ScenarioEngine | None" = None,
        *,
        observe_locally: bool = True,
    ) -> None:
        # Imported lazily: repro.system packages import this module at
        # load time (same structural cycle as the scenario engine).
        from repro.system.adaptive import make_budget_controller, observe_window

        self._pipeline = pipeline
        self._transport = transport
        self._scenario = scenario
        self._controller = make_budget_controller(
            pipeline.config.budget_controller, pipeline.config
        )
        self._observe_window = observe_window
        self._observe_locally = observe_locally
        if scenario is not None and set(scenario.tree.nodes) != set(
            pipeline.tree.nodes
        ):
            raise PipelineError(
                "scenario was bound to a different tree than the "
                "pipeline runs on; bind it to the run's config.tree"
            )
        for node in pipeline.tree.sampling_nodes:
            transport.register(node.name)
        self._windows_run = 0
        #: Per-window scenario state (None in static runs / pre-run).
        self._window_state: "WindowState | None" = None
        #: Straggler queue: (due_window, src, dst, batch) not yet delivered.
        self._delayed: list[tuple[int, str, str, WeightedBatch]] = []
        self._loss_rng: random.Random | None = None
        self._window_dropped = 0

    @property
    def pipeline(self) -> Pipeline:
        """The assembled pipeline this runner executes."""
        return self._pipeline

    @property
    def transport(self) -> Transport:
        """The transport moving batches between nodes."""
        return self._transport

    @property
    def controller(self):
        """The live per-window budget controller (see config docs)."""
        return self._controller

    def apply_observation(self, observation) -> None:
        """Feed an externally built window observation to the controller.

        The sharded runner's broadcast seam: the parent merges every
        shard's root Theta, builds one
        :class:`~repro.system.adaptive.WindowObservation` and pushes it
        into each shard's controller before the next window, so the
        coordination-free shards all replay the decision the in-process
        controller would have made on the same evidence.
        """
        self._controller.observe(observation)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_window(self) -> WindowOutcome | None:
        """Run one window through ApproxIoT, SRS and the native path.

        Returns ``None`` for a window in which no source emitted
        anything — a legitimate intermittent outcome when a source's
        ``rate * window`` is below one item, since the schedule-exact
        rate accumulator owes such sources an empty interval every so
        often. Time still advances past the empty window.
        """
        outcome, _theta = self.run_window_with_theta()
        return outcome

    def sample_window(self) -> SampledWindow | None:
        """Run one window up to, and not including, the root estimate.

        The sharded engine runs this per worker shard: a shard's Theta
        is final only once the parent has merged every shard's
        ``(W_out, I)`` pairs, so the one estimate per window is made
        there. ``None`` marks a window in which no source emitted.
        """
        window_start = self._windows_run * self._pipeline.config.window_seconds
        self._window_dropped = 0
        sample_budget = self._controller.begin_window(self._pipeline)
        if self._scenario is not None:
            self._window_state = self._scenario.state_for(self._windows_run)
            self._apply_window_state(self._window_state)
        emitted = self._pipeline.emit_window(window_start)
        items_emitted = sum(len(batch) for batch in emitted.values())
        if items_emitted == 0:
            # Straggler batches due now stay queued: loss is measured
            # against emissions, and a no-emission window has no ground
            # truth to measure late arrivals against.
            self._windows_run += 1
            return None

        # The ground truth is the native strategy's answer, computed
        # directly: forwarding everything through the transport would
        # reach the same sum with an O(n) traversal for nothing.
        exact_sum = sum(batch.value_sum() for batch in emitted.values())
        theta = self.sample_theta(emitted)
        srs_sum = self.run_srs(emitted)
        self._windows_run += 1
        return SampledWindow(
            exact_sum=exact_sum,
            srs_sum=srs_sum,
            items_emitted=items_emitted,
            items_dropped=self._window_dropped,
            sample_budget=sample_budget,
            theta=theta,
        )

    def run_window_with_theta(
        self,
    ) -> tuple[WindowOutcome | None, ThetaStore | None]:
        """One window's outcome plus the root's Theta store behind it.

        :meth:`sample_window`, then the root estimate over its Theta;
        :meth:`run_window` is this with the store dropped. All three
        advance window time identically, so a single-shard run is
        bit-for-bit the in-process run.
        """
        window = self.sample_window()
        if window is None:
            return None, None
        approx = self._estimate(window.theta)
        if self._observe_locally and self._controller.wants_observations:
            self._controller.observe(
                self._observe_window(self._windows_run - 1, window.theta, approx)
            )
        outcome = WindowOutcome(
            window_index=self._windows_run,
            exact_sum=window.exact_sum,
            approx_sum=approx,
            srs_sum=window.srs_sum,
            items_emitted=window.items_emitted,
            items_sampled=window.theta.sampled_items,
            items_dropped=window.items_dropped,
            sample_budget=window.sample_budget,
        )
        return outcome, window.theta

    def run(self, windows: int) -> RunOutcome:
        """Run several windows and collect the outcomes.

        Empty windows (low-rate sources owed no items yet) contribute
        no outcome; a run in which *every* window was empty is a
        configuration error and raises.
        """
        if windows <= 0:
            raise PipelineError(f"window count must be >= 1, got {windows}")
        outcome = RunOutcome()
        for _ in range(windows):
            window = self.run_window()
            if window is not None:
                outcome.windows.append(window)
        if not outcome.windows:
            raise PipelineError(
                "sources emitted no items in any window of the run; "
                "increase the source rates or the window size"
            )
        return outcome

    # ------------------------------------------------------------------
    # Scenario application
    # ------------------------------------------------------------------
    def _apply_window_state(self, state: "WindowState") -> None:
        """Reshape the world before a window runs.

        Sources are re-rated from the scenario's effective
        per-sub-stream rates (offline sources emit nothing; surviving
        owners keep their even share — a dead sensor's volume is
        genuinely lost, not redistributed). The per-window loss rng is
        derived from ``(seed, window)`` as a string seed (stable
        across processes), so link-loss decisions are reproducible and
        independent of the sampling entropy stream.
        """
        pipeline = self._pipeline
        for node in pipeline.tree.sources:
            substream = pipeline.source_substreams[node.name]
            owners = pipeline.substream_owner_count(substream)
            rate = state.rates[substream] / owners
            if node.name in state.offline:
                rate = 0.0
            pipeline.sources[node.name].rate_per_second = rate
        self._loss_rng = random.Random(
            f"link-loss:{pipeline.config.seed}:{state.window}"
        )

    def _route(self, dst: str) -> str:
        """The live node a destination resolves to under churn.

        Walks up past offline nodes to the nearest live ancestor (the
        root never churns). Batches carry their own ``(W_in, items)``
        pairs, so re-parenting changes where resampling happens, never
        the weight bookkeeping.
        """
        state = self._window_state
        if not state.offline:
            return dst
        tree = self._pipeline.tree
        while dst in state.offline:
            parent = tree.node(dst).parent
            assert parent is not None  # the root can never churn
            dst = parent
        return dst

    def _deliver(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """One scenario-aware hop from ``src`` toward ``dst``.

        Applies the window's uplink state for ``src`` — seeded loss
        (the batch is destroyed; the estimator never learns it
        existed) or straggler delay (the batch is queued and arrives
        whole windows later) — then routes around offline nodes to
        the nearest live ancestor. Static windows never come here:
        :meth:`sample_theta` hands their hops to the transport.
        """
        link = self._window_state.degraded.get(src)
        if link is not None:
            if link.loss > 0.0:
                assert self._loss_rng is not None
                if self._loss_rng.random() < link.loss:
                    self._window_dropped += len(batch)
                    return
            if link.delay_windows > 0:
                self._delayed.append(
                    (self._windows_run + link.delay_windows, src, dst, batch)
                )
                return
        self._transport.send(src, self._route(dst), batch)

    def _release_due_stragglers(self) -> None:
        """Deliver straggler batches whose delay has elapsed.

        Late batches join the *current* window's traversal at their
        original destination (re-routed if it is now offline) — mass
        smeared out of the window it was emitted in and into this one,
        which is exactly the quality wobble a straggler link causes.
        """
        if not self._delayed:
            return
        now = self._windows_run
        due = [entry for entry in self._delayed if entry[0] <= now]
        if not due:
            return
        self._delayed = [entry for entry in self._delayed if entry[0] > now]
        for _due_window, _src, dst, batch in due:
            self._transport.send(_src, self._route(dst), batch)

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------
    def _inject(self, emitted: "dict[str, ColumnarBatch]", hop) -> None:
        """Ship one window's emissions to the first sampling layer.

        A single-stratum payload (what sources emit) ships as it is;
        a mixed one groups by column first.
        """
        for source_node in self._pipeline.tree.sources:
            payload = emitted[source_node.name]
            if not len(payload):
                continue
            parent = source_node.parent
            assert parent is not None
            if isinstance(payload.substreams, str):
                hop(
                    source_node.name, parent,
                    WeightedBatch(payload.substreams, 1.0, payload),
                )
                continue
            for substream, chunk in payload.group_by_substream().items():
                hop(
                    source_node.name, parent,
                    WeightedBatch(substream, 1.0, chunk),
                )

    def run_approxiot(
        self, emitted: "dict[str, ColumnarBatch]"
    ) -> ApproxIoTWindow:
        """One window through the tree, then the root estimate."""
        theta = self.sample_theta(emitted)
        return ApproxIoTWindow(theta, self._estimate(theta), theta.sampled_items)

    def _estimate(self, theta: ThetaStore) -> ApproximateResult:
        """The root estimate over a window's final Theta."""
        return _estimate_window(
            theta, self._pipeline.config.confidence, self._scenario is not None
        )

    def sample_theta(
        self, emitted: "dict[str, ColumnarBatch]"
    ) -> ThetaStore:
        """Propagate one window bottom-up with WHSamp at every node.

        Returns the root's Theta. Under a scenario, straggler batches
        due this window are released first, offline nodes are skipped
        (their traffic was routed around them at send time), and every
        upward hop goes through the scenario-aware :meth:`_deliver`; a
        static window hands every hop straight to the transport.
        """
        self._release_due_stragglers()
        hop = (
            self._transport.send if self._window_state is None
            else self._deliver
        )
        self._inject(emitted, hop)
        offline = (
            self._window_state.offline if self._window_state is not None
            else frozenset()
        )
        theta = ThetaStore()
        for node in self._pipeline.tree.sampling_nodes:  # bottom-up, root last
            if node.name in offline:
                continue
            batches = self._transport.collect(node.name)
            if not batches:
                continue
            sampled = sample_interval(self._pipeline, node.name, batches)
            if node.parent is None:
                theta.extend(sampled)
            else:
                for batch in sampled:
                    hop(node.name, node.parent, batch)
        return theta

    def run_srs(
        self, emitted: "dict[str, ColumnarBatch]"
    ) -> float:
        """The baseline: coin-flip at the first edge layer, HT at root.

        One keep/drop mask per source, applied to its value column in
        one select-and-reduce — no intermediate list of kept values is
        materialized.
        """
        fraction = self._pipeline.config.sampling_fraction
        kept_sum = 0.0
        for node in self._pipeline.tree.sources:
            payload = emitted[node.name]
            kept_sum += masked_sum(
                payload.values,
                coin_flips(self._pipeline.gen, fraction, len(payload)),
            )
        return kept_sum / fraction
