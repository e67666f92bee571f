"""Per-window budget controllers — §IV-B's refinement loop, in the run.

The paper sketches a feedback mechanism: the root observes each
window's reported error bound and refines the sampling parameters for
subsequent windows. This module closes that loop **inside** one
running engine, where sampler and Theta state persist across windows:

* ``static`` — no feedback. The engine's classic behaviour, bit for
  bit: the controller only reports the assembly-time root budget.
* ``adaptive_fraction`` — :class:`AdaptiveFractionController`,
  §IV-B's multiplicative rule driving the *global* sampling fraction
  window to window. Every sampling node's budget is re-derived from
  the live fraction before each window opens.
* ``variance_aware`` — per-sub-stream Neyman reallocation at a fixed
  total budget. After each window the controller reads the realized
  per-sub-stream variance and estimated counts out of the root's
  Theta store, turns them into standard-deviation tilt factors
  (:func:`~repro.core.cost.neyman_factors`), and re-runs the
  ``getSampleSize`` split for the next window through
  :func:`~repro.core.stratified.allocate_weighted` — budget flows
  toward the high-variance / bursting sub-streams that dominate the
  Eq. 10-12 stratified variance, without spending one extra slot.

Controllers see the world only through :class:`WindowObservation`, a
small picklable value built once per window from the merged root Theta
(:func:`observe_window`). That is what makes sharded execution
coordination-free: the parent merges per-shard Theta exactly as the
root estimator does, builds one observation, and broadcasts it to
every shard, so each shard's controller replays the identical decision
the in-process controller would have made. A ``None`` observation
(empty window, blackout) always means *hold* — adapting on silence
would tell the controller the estimate was perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.core.cost import neyman_factors, require_fraction
from repro.core.error_bounds import ApproximateResult, sample_variance
from repro.core.estimator import ThetaStore
from repro.core.stratified import allocate_weighted
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # circular at runtime: the engine lazily imports us
    from repro.engine.pipeline import Pipeline
    from repro.system.config import PipelineConfig

__all__ = [
    "ADAPTIVE_TARGET_RELATIVE_ERROR",
    "AdaptiveFractionController",
    "BudgetController",
    "StaticBudgetController",
    "SubstreamObservation",
    "VarianceAwareController",
    "WindowObservation",
    "make_budget_controller",
    "observe_window",
]

#: Relative-error target the in-run ``adaptive_fraction`` controller
#: steers toward (the analyst knob of §IV-B; callers needing a custom
#: target construct :class:`AdaptiveFractionController` directly).
ADAPTIVE_TARGET_RELATIVE_ERROR = 0.05

#: §IV-B's multiplicative steps: a window whose relative bound is over
#: the target scales the fraction by ``_GROW``, one under
#: ``target * _SLACK`` by ``_SHRINK``; in between the fraction holds.
_GROW = 1.5
_SHRINK = 0.9
_SLACK = 0.5


@dataclass(frozen=True, slots=True)
class SubstreamObservation:
    """One sub-stream's realized state at the root after a window.

    Attributes:
        substream: The stratum identifier.
        estimated_count: Arrival count recovered through Eq. 8.
        sampled_count: Physical items for this stratum at the root.
        variance: Sample variance of the stratum's sampled values
            (0 when fewer than two values reached the root).
    """

    substream: str
    estimated_count: float
    sampled_count: int
    variance: float


@dataclass(frozen=True, slots=True)
class WindowObservation:
    """Everything a budget controller may learn from one window.

    A plain frozen value — picklable and cheap — because in sharded
    runs it crosses the process boundary: the parent builds it from
    the *merged* root Theta and broadcasts it, so every shard adapts
    on the same global evidence.

    Attributes:
        window: 0-based window slot the observation was taken from.
        relative_bound: The reported §III-D error bound relative to
            the estimate (``error / |value|``), or ``None`` when the
            estimate was zero and no relative bound exists.
        substreams: Per-sub-stream realized state, sorted by name.
    """

    window: int
    relative_bound: float | None
    substreams: tuple[SubstreamObservation, ...]


def observe_window(
    window: int, theta: ThetaStore, approx: ApproximateResult
) -> WindowObservation:
    """Distill one window's root state into a controller observation.

    Reads the merged ``(W_out, I)`` pairs exactly once: per-sub-stream
    estimated counts via Eq. 8 and the realized sample variance of each
    stratum's values — the two inputs Neyman allocation needs — plus
    the reported relative bound the fraction controller steers on.
    """
    per_substream = theta.per_substream()
    substreams = tuple(
        SubstreamObservation(
            substream=name,
            estimated_count=estimate.estimated_count,
            sampled_count=estimate.sampled_count,
            variance=sample_variance(estimate.sampled_values),
        )
        for name, estimate in sorted(per_substream.items())
    )
    relative_bound = (
        approx.relative_error() if approx.value != 0 else None
    )
    return WindowObservation(
        window=window, relative_bound=relative_bound, substreams=substreams
    )


class BudgetController(Protocol):
    """The per-window feedback seam of the engine.

    ``begin_window`` runs before a window opens and applies the
    controller's current decision to the live pipeline (budgets,
    allocation override), returning the root budget in effect for the
    window's quality trace. ``observe`` runs after the window closes
    with the realized root state (``None`` for an empty window, which
    every controller treats as *hold*). ``wants_observations`` lets
    the engine skip building observations entirely for controllers
    that never look at them.
    """

    name: str
    wants_observations: bool

    def begin_window(self, pipeline: "Pipeline") -> int:
        """Apply the current decision; return the root budget in effect."""
        ...  # pragma: no cover - protocol

    def observe(self, observation: WindowObservation | None) -> None:
        """Feed back one window's realized root state (``None`` = hold)."""
        ...  # pragma: no cover - protocol


def _root_budget(pipeline: "Pipeline") -> int:
    """The root node's per-interval budget under the live decision."""
    return pipeline.budget(pipeline.tree.root.name)


class StaticBudgetController:
    """No feedback: assembly-time budgets, config allocation policy.

    The engine constructed with this controller is bit-for-bit the
    pre-controller engine — ``begin_window`` only *reads* the root
    budget and ``observe`` is never even fed (``wants_observations``
    is false, so no observation is built).
    """

    name = "static"
    wants_observations = False

    def begin_window(self, pipeline: "Pipeline") -> int:
        """Report the assembly-time root budget; change nothing."""
        return _root_budget(pipeline)

    def observe(self, observation: WindowObservation | None) -> None:
        """Ignore feedback (the static contract)."""


class AdaptiveFractionController:
    """§IV-B's global-fraction feedback, applied between windows.

    After each window the reported relative bound moves the fraction:
    up by ``_GROW`` (capped at 1) when the bound is over the target,
    down by ``_SHRINK`` (floored at ``min_fraction``) when it is under
    ``target * _SLACK``, and not at all in between. Before the next
    window every sampling node's budget is re-derived from the live
    fraction — same cost function as pipeline assembly, so a fraction
    equal to the config's reproduces the assembly budgets exactly.
    Empty and zero-estimate windows carry no relative bound and hold
    the fraction.
    """

    name = "adaptive_fraction"
    wants_observations = True

    def __init__(
        self,
        target_relative_error: float,
        initial_fraction: float,
        *,
        min_fraction: float = 0.01,
    ) -> None:
        if target_relative_error <= 0:
            raise ConfigurationError(
                f"target error must be positive, got {target_relative_error}"
            )
        self._target = float(target_relative_error)
        self._fraction = require_fraction(initial_fraction)
        self._min_fraction = require_fraction(min_fraction)
        self._applied_fraction: float | None = None

    @property
    def fraction(self) -> float:
        """The sampling fraction the next window will run at."""
        return self._fraction

    def begin_window(self, pipeline: "Pipeline") -> int:
        """Re-derive every node budget from the live fraction."""
        fraction = self._fraction
        if fraction != self._applied_fraction:
            pipeline.budgets = pipeline.budgets_for_fraction(fraction)
            self._applied_fraction = fraction
        return _root_budget(pipeline)

    def observe(self, observation: WindowObservation | None) -> None:
        """Steer the fraction on the reported relative bound (if any)."""
        if observation is None or observation.relative_bound is None:
            return
        bound = observation.relative_bound
        if bound < 0:
            raise ConfigurationError(
                f"relative error must be >= 0, got {bound}"
            )
        if bound > self._target:
            self._fraction = min(1.0, self._fraction * _GROW)
        elif bound < self._target * _SLACK:
            self._fraction = max(self._min_fraction, self._fraction * _SHRINK)


class VarianceAwareController:
    """Neyman reallocation of a *fixed* total budget across sub-streams.

    Every window's total budget is exactly the static controller's —
    this controller never buys slots, it moves them. After a window it
    converts the realized per-sub-stream variances into
    standard-deviation factors (:func:`~repro.core.cost.neyman_factors`,
    clamped to ``[1/max_tilt, max_tilt]``); before the next window it
    overrides the pipeline's ``getSampleSize`` policy with a weighted
    fair fill whose stratum weights are ``count * factor`` — live
    arrival counts (bursts register instantly) times last window's
    deviation tilt, which is Neyman's ``c_i * s_i`` with the deviation
    one window stale. When the observed tilt is flat (all deviations
    within ``min_dispersion`` of each other) the override is dropped
    and the window runs the config policy bit-for-bit.
    """

    name = "variance_aware"
    wants_observations = True

    def __init__(
        self, *, max_tilt: float = 32.0, min_dispersion: float = 1.05
    ) -> None:
        if max_tilt <= 1.0:
            raise ConfigurationError(
                f"max_tilt must exceed 1, got {max_tilt}"
            )
        if min_dispersion < 1.0:
            raise ConfigurationError(
                f"min_dispersion must be >= 1, got {min_dispersion}"
            )
        self._max_tilt = float(max_tilt)
        self._min_dispersion = float(min_dispersion)
        self._factors: dict[str, float] | None = None

    @property
    def factors(self) -> dict[str, float] | None:
        """The live deviation tilt (``None`` while flat / unobserved)."""
        return dict(self._factors) if self._factors is not None else None

    def begin_window(self, pipeline: "Pipeline") -> int:
        """Install (or drop) the weighted ``getSampleSize`` override."""
        factors = self._factors
        if factors is None:
            pipeline.allocation_override = None
        else:
            pipeline.allocation_override = self._weighted_policy(factors)
        return _root_budget(pipeline)

    def _weighted_policy(self, factors: dict[str, float]):
        """An AllocationPolicy closure weighting strata by count*factor.

        ``whsamp_batches`` allocates over ``(substream, W_in)`` group
        keys, so the closure maps every key back to its sub-stream's
        factor; unseen sub-streams (newly appearing strata) run at the
        neutral factor 1.
        """

        def allocate(sample_size, stratum_counts):
            weights = {}
            for key, count in stratum_counts.items():
                substream = key[0] if isinstance(key, tuple) else key
                weights[key] = count * factors.get(substream, 1.0)
            return allocate_weighted(sample_size, stratum_counts, weights)

        return allocate

    def observe(self, observation: WindowObservation | None) -> None:
        """Refresh the deviation tilt from the window's realized state."""
        if observation is None or not observation.substreams:
            return
        variances = {
            sub.substream: sub.variance for sub in observation.substreams
        }
        factors = {
            substream: min(
                self._max_tilt, max(1.0 / self._max_tilt, factor)
            )
            for substream, factor in neyman_factors(variances).items()
        }
        spread = max(factors.values()) / min(factors.values())
        self._factors = None if spread < self._min_dispersion else factors


#: Controller names accepted by :func:`make_budget_controller` (and by
#: :attr:`repro.system.config.PipelineConfig.budget_controller`).
_CONTROLLERS = ("static", "adaptive_fraction", "variance_aware")


def make_budget_controller(
    name: str, config: "PipelineConfig"
) -> BudgetController:
    """Construct the controller a config names, seeded from its knobs.

    ``adaptive_fraction`` starts at the config's sampling fraction and
    steers toward :data:`ADAPTIVE_TARGET_RELATIVE_ERROR`; the other
    controllers take no parameters from the config. Unknown names fail
    loudly (config validation normally catches them first).
    """
    if name == "static":
        return StaticBudgetController()
    if name == "adaptive_fraction":
        return AdaptiveFractionController(
            ADAPTIVE_TARGET_RELATIVE_ERROR,
            config.sampling_fraction,
            min_fraction=min(0.01, config.sampling_fraction),
        )
    if name == "variance_aware":
        return VarianceAwareController()
    raise ConfigurationError(
        f"unknown budget controller {name!r}; choose from {_CONTROLLERS}"
    )
