"""Adaptive feedback driver (§IV-B's refinement loop, between runs).

When a window's reported error bound exceeds the analyst's budget, the
root refines the sampling parameters at all layers for subsequent runs.
:class:`FeedbackDriver` reproduces the paper's *between-runs* form of
that loop: each window is executed by a fresh statistical runner at the
controller's current fraction ("in subsequent runs", per the paper).

The driver is a thin facade over the in-run controller machinery of
:mod:`repro.system.adaptive` — it wraps the caller's
:class:`~repro.core.cost.AdaptiveErrorBudget` in an
:class:`~repro.system.adaptive.AdaptiveFractionController` and feeds it
the same :class:`~repro.system.adaptive.WindowObservation` values the
engine's per-window hook produces. The observation contract fixes a
long-standing trap: a window whose estimate is *zero* (blackout, total
churn) used to be recorded as ``relative_error = 0.0`` — "the estimate
was perfect" — shrinking the budget exactly when the system was blind.
A zero-estimate window now carries no relative bound, the controller
holds its fraction, and the trace records ``nan`` for that window.

For feedback *inside* one running engine (sampler and Theta state
persisting across windows), set
:attr:`~repro.system.config.PipelineConfig.budget_controller` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.cost import AdaptiveErrorBudget
from repro.errors import PipelineError
from repro.system.adaptive import AdaptiveFractionController, WindowObservation
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner, WindowOutcome
from repro.workloads.rates import RateSchedule
from repro.workloads.source import ItemGenerator

__all__ = ["FeedbackDriver", "FeedbackOutcome"]


@dataclass
class FeedbackOutcome:
    """Trace of an adaptive run.

    ``relative_errors`` holds ``nan`` for windows the controller held
    on (zero-estimate windows carry no relative bound); ``fractions``
    records the fraction each window actually ran at.
    """

    windows: list[WindowOutcome] = field(default_factory=list)
    fractions: list[float] = field(default_factory=list)
    relative_errors: list[float] = field(default_factory=list)

    @property
    def final_fraction(self) -> float:
        """The fraction the controller settled on."""
        if not self.fractions:
            raise PipelineError("adaptive run recorded no windows")
        return self.fractions[-1]


class FeedbackDriver:
    """Runs windows, feeding each error bound back into the controller."""

    def __init__(
        self,
        config: PipelineConfig,
        schedule: RateSchedule,
        generators: dict[str, ItemGenerator],
        controller: AdaptiveErrorBudget,
    ) -> None:
        self._base_config = config
        self._schedule = schedule
        self._generators = generators
        self._budget = controller
        # The facade seam: observation handling (including the
        # hold-on-zero rule) is the in-run controller's, shared with
        # the engine's per-window hook. The caller's AdaptiveErrorBudget
        # is wrapped, not copied, so its fraction/history stay live.
        self._controller = AdaptiveFractionController(controller)

    def run(self, windows: int) -> FeedbackOutcome:
        """Run ``windows`` windows with per-window fraction refinement.

        Each window is executed by a fresh statistical runner at the
        controller's current fraction (sampling parameters refined "in
        subsequent runs", per the paper); the realized relative error
        bound of the SUM estimate drives the next adjustment. Windows
        with a zero estimate (or with nothing emitted at all) hold the
        fraction — silence is not evidence of a perfect estimate — and
        record ``nan`` in the error trace.
        """
        if windows <= 0:
            raise PipelineError(f"window count must be >= 1, got {windows}")
        outcome = FeedbackOutcome()
        for index in range(windows):
            fraction = self._budget.fraction
            # Vary the seed per window so the adaptive trace is not a
            # single replayed sample path.
            config = replace(
                self._base_config,
                sampling_fraction=fraction,
                seed=self._base_config.seed + index,
            )
            with StatisticalRunner(
                config, self._schedule, self._generators
            ) as runner:
                window = runner.run_window()
            if window is None:
                # Nothing emitted: the slot advances (seed variation
                # keeps its place) but there is nothing to learn from.
                continue
            observation = _observation_for(index, window)
            self._controller.observe(observation)
            outcome.windows.append(window)
            outcome.fractions.append(fraction)
            outcome.relative_errors.append(
                observation.relative_bound
                if observation.relative_bound is not None
                else math.nan
            )
        return outcome


def _observation_for(
    index: int, window: WindowOutcome
) -> WindowObservation:
    """One driver window as a controller observation.

    Only the relative bound matters to the fraction controller;
    per-sub-stream state is not reconstructed (the driver discards the
    root Theta with its fresh runner). A zero estimate yields a
    ``None`` bound — the hold signal.
    """
    relative_bound = (
        window.approx_sum.relative_error()
        if window.approx_sum.value != 0
        else None
    )
    return WindowObservation(
        window=index, relative_bound=relative_bound, substreams=()
    )
