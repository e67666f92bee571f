"""The benchmark's one seam onto the program under test.

Every ``repro`` import of the benchmark lives here, so an API change in
the program breaks the benchmark in this file and nowhere else. The
rest of ``bench/`` sees only the job classes below and plain numbers
(:class:`Window`, dicts, floats) — never a ``repro`` object's
attributes.

All jobs run the paper's setting: tree 8-4-2-1, ``uniform_schedule(1.0)``
(100 k items per 1 s window over sub-streams A-D), ``backend="numpy"``
and the columnar plane. numpy is required; its absence fails the import.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from contextlib import nullcontext
from typing import Callable, ContextManager, NamedTuple

import numpy

from bench import ROOT

# The checkout's own sources, ahead of any installed copy: the driver's
# command cannot set PYTHONPATH, and the benchmark must measure this tree.
sys.path.insert(0, str(ROOT / "src"))

from repro.broker.records import (  # noqa: E402
    decode_weighted_batches,
    encode_weighted_batches,
)
from repro.core.columns import ColumnarBatch  # noqa: E402
from repro.core.error_bounds import estimate_sum_with_error  # noqa: E402
from repro.core.estimator import ThetaStore  # noqa: E402
from repro.core.items import StreamItem  # noqa: E402
from repro.engine.pipeline import build_pipeline  # noqa: E402
from repro.engine.runner import EngineRunner  # noqa: E402
from repro.engine.sharding import ShardedEngineRunner, plan_shards  # noqa: E402
from repro.engine.transport import InProcessTransport  # noqa: E402
from repro.experiments.base import (  # noqa: E402
    gaussian_generators,
    saturating_placement,
    uniform_schedule,
)
from repro.system.config import PipelineConfig  # noqa: E402
from repro.system.deployment import DeploymentSimulator  # noqa: E402
from repro.system.statistical import StatisticalRunner  # noqa: E402

#: Items one window of ``uniform_schedule(1.0)`` emits.
WINDOW_ITEMS = 100_000

#: ``span(name)`` → context manager; the tracer's hook into a job.
SpanFactory = Callable[[str], ContextManager]


def _no_span(_name: str) -> ContextManager:
    return nullcontext()


class Window(NamedTuple):
    """One window's outputs as plain numbers (what the checks compare).

    ``bound`` is the reported half-width of the confidence interval;
    ``recovered`` is the Eq. 8 item count rebuilt from the root's Theta
    (``None`` where the public API does not hand Theta out), ``srs`` the
    baseline's estimate (``None`` where the job does not run it).
    """

    emitted: int
    exact: float
    approx: float
    bound: float
    at_root: int
    srs: float | None = None
    recovered: float | None = None


def _config(seed: int, fraction: float, **knobs) -> PipelineConfig:
    """A paper-setting config on the fastest plane the program offers.

    ``data_plane`` is passed only while ``PipelineConfig`` declares it,
    so the knob can be deleted (ROADMAP 3a) without editing ``bench/``;
    the shard transport is never named — runs take the default.
    """
    declared = {field.name for field in dataclasses.fields(PipelineConfig)}
    if "data_plane" in declared:
        knobs["data_plane"] = "columnar"
    return PipelineConfig(
        sampling_fraction=fraction, seed=seed, backend="numpy", **knobs
    )


def _recovered(theta: ThetaStore) -> float:
    return sum(est.estimated_count for est in theta.per_substream().values())


def _window(outcome, theta: ThetaStore | None = None) -> Window:
    return Window(
        emitted=outcome.items_emitted,
        exact=outcome.exact_sum,
        approx=outcome.approx_sum.value,
        bound=outcome.approx_sum.error,
        srs=outcome.srs_sum,
        at_root=outcome.items_sampled,
        recovered=None if theta is None else _recovered(theta),
    )


def sampling_layers() -> dict[str, str]:
    """Sampling node name → ``"l1"`` / ``"l2"`` / ``"root"``."""
    tree = PipelineConfig().tree
    return {
        node.name: "root" if node.parent is None else f"l{node.layer}"
        for node in tree.sampling_nodes
    }


# ----------------------------------------------------------------------
# Statistical runs (stat-e2e, sharded-2w)
# ----------------------------------------------------------------------
class StatJob:
    """``StatisticalRunner`` over the program's own Gaussian generators.

    ``inline=True`` builds the single-process twin of a sharded run
    (``ShardedEngineRunner(inline=True)``), which the facade does not
    expose; everything else goes through ``StatisticalRunner``.
    """

    def __init__(
        self, seed: int, fraction: float, *, workers: int = 1,
        inline: bool = False,
    ) -> None:
        config = _config(seed, fraction, workers=workers)
        schedule = uniform_schedule(1.0)
        if inline:
            self._runner = ShardedEngineRunner(
                config, schedule, gaussian_generators(), inline=True
            )
            self._engine = self._runner
        else:
            self._runner = StatisticalRunner(
                config, schedule, gaussian_generators()
            )
            self._engine = self._runner.engine
        self._staged = 0

    def run(self, windows: int) -> list[Window]:
        """``run(windows)`` — the user-facing call."""
        return [_window(w) for w in self._runner.run(windows).windows]

    def window_with_theta(self) -> Window:
        """One window through the engine, Eq. 8 count included."""
        outcome, theta = self._engine.run_window_with_theta()
        return _window(outcome, theta)

    def staged_window(self, span: SpanFactory) -> Window:
        """One window driven stage by stage from outside, for the trace.

        The same four calls ``EngineRunner.run_window`` makes, each in
        its own span; what the runner does around them (controller,
        bookkeeping, outcome assembly) is what the traced op lacks and
        ``engine.runner.other_ms`` reports.
        """
        engine = self._engine
        pipeline = engine.pipeline
        with span("workloads.emit_window"):
            emitted = pipeline.emit_window(float(self._staged))
        self._staged += 1
        with span("core.columns.exact_sum"):
            exact = sum(batch.value_sum() for batch in emitted.values())
        with span("engine.runner.run_approxiot"):
            approx = engine.run_approxiot(emitted)
        with span("engine.runner.run_srs"):
            srs = engine.run_srs(emitted)
        return Window(
            emitted=sum(len(batch) for batch in emitted.values()),
            exact=exact,
            approx=approx.approx.value,
            bound=approx.approx.error,
            srs=srs,
            at_root=approx.sampled,
            recovered=_recovered(approx.theta),
        )

    def ipc_stats(self) -> dict[str, float]:
        """``ShardedEngineRunner.ipc_stats`` as a plain dict."""
        return dataclasses.asdict(self._engine.ipc_stats)

    def close(self) -> None:
        self._runner.close()


def codec_probe(seed: int, fraction: float, workers: int) -> dict[str, float]:
    """Direct calls into the shard codec on one real shard Theta.

    The Theta is shard 0's first window of the ``(seed, workers)`` plan,
    built the way an inline shard builds it; the frame is then encoded,
    decoded and merged from outside, which is the parent's per-window
    work in a sharded run without its process boundary.
    """
    config = _config(seed, fraction, workers=workers)
    thetas = []
    for plan in plan_shards(config, uniform_schedule(1.0)):
        shard = EngineRunner(
            build_pipeline(
                dataclasses.replace(config, seed=plan.seed, workers=1),
                plan.schedule,
                gaussian_generators(),
            ),
            InProcessTransport(),
        )
        _outcome, theta = shard.run_window_with_theta()
        thetas.append(theta)
    batches = thetas[0].batches
    start = time.perf_counter()
    frame = encode_weighted_batches(batches)
    encoded = time.perf_counter()
    decode_weighted_batches(frame)
    decoded = time.perf_counter()
    merged = ThetaStore()
    for theta in thetas:
        merged.merge(theta)
    estimate_sum_with_error(merged)
    done = time.perf_counter()
    return {
        "frame_bytes": len(frame),
        "encode_s": encoded - start,
        "decode_s": decoded - encoded,
        "merge_s": done - decoded,
    }


# ----------------------------------------------------------------------
# Sampling tree alone (tree-replay)
# ----------------------------------------------------------------------
class TreeJob:
    """Pre-emitted windows replayed through ``EngineRunner.run_approxiot``.

    Generation happens once, here; a replayed window costs only inject
    → transport hops → WHSamp per layer → Theta → estimate.
    ``wrap_transport`` lets the tracer put its timing wrapper around the
    in-process transport.
    """

    def __init__(
        self, seed: int, fraction: float, windows: int,
        wrap_transport: Callable = lambda transport: transport,
    ) -> None:
        pipeline = build_pipeline(
            _config(seed, fraction), uniform_schedule(1.0),
            gaussian_generators(),
        )
        self._emitted = [
            pipeline.emit_window(float(index)) for index in range(windows)
        ]
        self._exact = [
            sum(batch.value_sum() for batch in window.values())
            for window in self._emitted
        ]
        self._engine = EngineRunner(
            pipeline, wrap_transport(InProcessTransport())
        )
        self.root_budget = pipeline.budget("root")

    def __len__(self) -> int:
        return len(self._emitted)

    def replay(self, index: int):
        """One stored window through the tree; returns its root state."""
        return self._engine.run_approxiot(self._emitted[index])

    def replay_all(self, passes: int) -> int:
        """``passes`` sweeps over every stored window; items at root."""
        at_root = 0
        for _ in range(passes):
            for emitted in self._emitted:
                at_root += self._engine.run_approxiot(emitted).sampled
        return at_root

    def window(self, index: int, state) -> Window:
        """A replayed window's outputs, Eq. 8 count included."""
        return Window(
            emitted=sum(len(b) for b in self._emitted[index].values()),
            exact=self._exact[index],
            approx=state.approx.value,
            bound=state.approx.error,
            at_root=state.sampled,
            recovered=_recovered(state.theta),
        )

    @staticmethod
    def estimate(state) -> int:
        """``estimate_sum_with_error`` on a root Theta, called directly."""
        return estimate_sum_with_error(state.theta).sampled_items


# ----------------------------------------------------------------------
# Deployment simulator on replayed inputs (deploy-replay)
# ----------------------------------------------------------------------
class ReplaySubstream:
    """An ``ItemGenerator`` that slices a seeded, pre-drawn value pool.

    Generation becomes a copy, so the simulator — not ``random.gauss``
    — is what a deployment op times, and the inputs stay byte-identical
    if the program's own generators are later re-baselined. The pool
    wraps around; ``seconds`` accumulates the time spent in here, the
    harness's own share of an op.
    """

    def __init__(self, name: str, pool: numpy.ndarray) -> None:
        self.name = name
        self._pool = pool
        self._cursor = 0
        self.seconds = 0.0

    def rewind(self) -> None:
        self._cursor = 0

    def _take(self, count: int) -> numpy.ndarray:
        if count > len(self._pool):
            raise ValueError(
                f"replay pool of {len(self._pool)} cannot serve {count} items"
            )
        if self._cursor + count > len(self._pool):
            self._cursor = 0
        values = self._pool[self._cursor:self._cursor + count].copy()
        self._cursor += count
        return values

    def generate_columns(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> ColumnarBatch:
        start = time.perf_counter()
        batch = ColumnarBatch.single(self.name, self._take(count), emitted_at)
        self.seconds += time.perf_counter() - start
        return batch

    def generate(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        start = time.perf_counter()
        items = [
            StreamItem(self.name, float(value), emitted_at)
            for value in self._take(count)
        ]
        self.seconds += time.perf_counter() - start
        return items


#: The Fig. 6 point a deployment op runs: mode → sampling fraction.
DEPLOY_MODES = {"approxiot": 0.1, "srs": 0.1, "native": 1.0}


class DeployJob:
    """One Fig. 6 point on ``DeploymentSimulator``, fed by replay.

    Every op rewinds the pool and builds fresh simulators from the same
    seed, so every op of every round simulates the identical run: its
    simulated throughput, latency and bytes must repeat exactly.
    """

    def __init__(self, seed: int, windows: int) -> None:
        self._seed = seed
        self._windows = windows
        self._schedule = uniform_schedule(1.0)
        self._placement = saturating_placement(self._schedule)
        rng = numpy.random.default_rng(seed)
        per_substream = int(WINDOW_ITEMS / 4 * windows)
        self._generators = {
            g.name: ReplaySubstream(
                g.name, rng.normal(g.mu, g.sigma, per_substream)
            )
            for g in gaussian_generators().values()
        }

    @property
    def replay_seconds(self) -> float:
        """Total time spent inside the replay generators so far."""
        return sum(g.seconds for g in self._generators.values())

    def point(self, span: SpanFactory = _no_span) -> dict[str, dict]:
        """Run the three modes; mode → the simulator's report."""
        reports = {}
        for mode, fraction in DEPLOY_MODES.items():
            for generator in self._generators.values():
                generator.rewind()
            config = _config(
                self._seed, fraction, mode=mode, placement=self._placement
            )
            with span(f"system.deployment.build.{mode}"):
                simulator = DeploymentSimulator(
                    config, self._schedule, self._generators,
                    n_windows=self._windows,
                )
            with span(f"system.deployment.run.{mode}"):
                report = simulator.run()
            reports[mode] = {
                "items_emitted": report.items_emitted,
                "items_at_root": report.items_at_root,
                "throughput": report.throughput_items_per_second,
                "latency": report.mean_latency_seconds,
                "boundary_bytes": list(report.boundary_bytes),
                "latency_records": simulator.latency_recorder.count,
            }
        return reports
