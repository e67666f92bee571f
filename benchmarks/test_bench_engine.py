"""Benchmark: end-to-end engine throughput.

Runs the statistical engine (all three strategies per window) at the
Fig. 6 workload — four equal-rate Gaussian sub-streams at the scale's
rate — and reports sustained items/s.

The gates, in two classes (see ``conftest.py``):

* **deterministic, always live** — mean loss sits within the reported
  §III-D error bound (which Eq. 8's exact count recovery keeps tight)
  at every worker count.
* **wall-clock, report-only unless** ``REPRO_BENCH_GATES=1`` — 2
  shards >= 0.9x single-process from 2 cores, >= 2.5x at 4 shards from
  4 cores. The ratios are always printed and published.

The module also publishes the worker-scaling table for sharded
multi-process execution (1/2/4/8 shards on the same workload), each
width on the shard transport the engine picks for this host (the
zero-copy shared-memory rings of :mod:`repro.engine.shm` where shards
fork and shared memory is usable, the pipe codec otherwise), with the
measured bytes through the Pipe per window. The pipe-vs-shm byte
claim is held by ``tests/engine/test_shm_transport.py``. Since
generation and the SRS coin flips
vectorised, a Fig. 6-scale window is a few milliseconds of work —
shorter than a lock-step IPC round trip — so at this operating point
sharding no longer pays (the old 1.8x at 2 shards was two processes
running ``random.gauss`` in parallel).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.experiments.base import ExperimentScale, uniform_schedule
from repro.metrics.report import Table, format_bytes, format_rate
from repro.system.config import PipelineConfig
from repro.system.statistical import StatisticalRunner
from repro.workloads.synthetic import paper_gaussian_substreams

#: Fig. 6's operating point on the throughput axis.
FRACTION = 0.1

#: Timing repetitions; the best run is reported so allocator noise and
#: first-call warmup do not flake the quick-scale CI assertion.
REPEATS = 3

#: Shard widths of the published worker-scaling table.
WORKER_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class EnginePoint:
    """Measured throughput of the single-process engine."""

    items_per_second: float
    mean_loss_percent: float


def run_engine_bench(scale: ExperimentScale) -> EnginePoint:
    """Best-of-``REPEATS`` throughput of one seeded run."""
    generators = {g.name: g for g in paper_gaussian_substreams()}
    schedule = uniform_schedule(scale.rate_scale)
    best = 0.0
    loss = 0.0
    for _ in range(REPEATS):
        config = PipelineConfig(
            sampling_fraction=FRACTION, seed=scale.config.seed
        )
        runner = StatisticalRunner(config, schedule, generators)
        start = time.perf_counter()
        run = runner.run(scale.windows)
        elapsed = time.perf_counter() - start
        items = sum(window.items_emitted for window in run.windows)
        best = max(best, items / elapsed)
        loss = run.mean_approxiot_loss
    return EnginePoint(best, loss)


def render_table(point: EnginePoint) -> str:
    """The paper-style table for one measurement."""
    table = Table(
        "Engine throughput (Fig. 6 workload, 10% fraction)",
        ["items/s", "mean loss"],
    )
    table.add_row(
        format_rate(point.items_per_second),
        f"{point.mean_loss_percent:.3f}%",
    )
    return table.render()


def main(scale: ExperimentScale | None = None) -> str:
    """Print the engine-throughput and worker-scaling tables."""
    scale = scale if scale is not None else ExperimentScale.bench()
    text = render_table(run_engine_bench(scale))
    text += "\n\n" + render_scaling_table(run_worker_scaling(scale))
    print(text)
    return text


@dataclass(frozen=True, slots=True)
class ScalingPoint:
    """Measured behaviour of one worker-shard width.

    ``transport`` is the shard transport the engine picked, ``"-"`` on
    the single-process row (no shard IPC);
    the byte counters are the per-window means from
    :class:`~repro.engine.sharding.ShardIpcStats` (zero when there is
    no shard IPC to account).
    """

    workers: int
    transport: str
    items_per_second: float
    mean_loss_percent: float
    mean_bound_percent: float
    pipe_bytes_per_window: float
    theta_bytes_per_window: float
    restarts: int = 0


def _measure_workers(workers: int, scale: ExperimentScale) -> ScalingPoint:
    generators = {g.name: g for g in paper_gaussian_substreams()}
    schedule = uniform_schedule(scale.rate_scale)
    config = PipelineConfig(
        sampling_fraction=FRACTION,
        seed=scale.config.seed,
        workers=workers,
    )
    best = 0.0
    loss = bound = 0.0
    # One persistent runner: shard processes fork once and stay up, so
    # the timed region measures steady-state sampling throughput — the
    # regime the scaling claim is about — not process startup. The
    # warmup window pays the fork + per-shard pipeline build (and
    # first-call numpy warmup) before the clock starts, and each timed
    # run covers enough windows that the one request/collect IPC round
    # trip per run amortizes (at quick scale, 3 windows of work are
    # smaller than a pipe round trip — that would gate IPC latency,
    # not scaling).
    windows = max(scale.windows, 10)
    pipe_per_window = theta_per_window = 0.0
    restarts = 0
    with StatisticalRunner(config, schedule, generators) as runner:
        runner.run(1)  # warmup
        for _ in range(REPEATS):
            start = time.perf_counter()
            run = runner.run(windows)
            elapsed = time.perf_counter() - start
            items = sum(window.items_emitted for window in run.windows)
            best = max(best, items / elapsed)
            loss = run.mean_approxiot_loss
            bound = (
                100.0
                * sum(
                    window.approx_sum.error / abs(window.approx_sum.value)
                    for window in run.windows
                )
                / len(run.windows)
            )
        if workers > 1:
            # The sharded driver's IPC accounting, accumulated across
            # warmup + every repeat — per-window means are exact.
            stats = runner.engine.ipc_stats
            transport = stats.transport
            pipe_per_window = stats.pipe_bytes_per_window
            theta_per_window = stats.theta_bytes_per_window
            restarts = stats.restarts
        else:
            transport = "-"  # single process: no shard IPC at all
    return ScalingPoint(
        workers, transport, best, loss, bound,
        pipe_per_window, theta_per_window, restarts,
    )


def run_worker_scaling(scale: ExperimentScale) -> list[ScalingPoint]:
    """Throughput, accuracy and IPC volume per shard width."""
    return [_measure_workers(workers, scale) for workers in WORKER_COUNTS]


def render_scaling_table(points: list[ScalingPoint]) -> str:
    """The paper-style worker-scaling table for one measured sweep."""
    cores = os.cpu_count() or 1
    table = Table(
        "Worker scaling: sharded engine (Fig. 6 workload, 10% fraction)",
        ["workers", "transport", "host cores", "items/s", "speedup",
         "mean loss", "error bound", "pipe bytes/window", "restarts"],
    )
    baseline = points[0].items_per_second
    for point in points:
        table.add_row(
            str(point.workers),
            point.transport,
            str(cores),
            format_rate(point.items_per_second),
            f"{point.items_per_second / baseline:.2f}x",
            f"{point.mean_loss_percent:.3f}%",
            f"{point.mean_bound_percent:.3f}%",
            format_bytes(point.pipe_bytes_per_window)
            if point.workers > 1 else "-",
            str(point.restarts) if point.workers > 1 else "-",
        )
    return table.render()


def test_bench_engine(benchmark, bench_scale, results_sink):
    """The engine's throughput is reported (no gate: one timing sample)."""
    point = benchmark.pedantic(
        run_engine_bench, args=(bench_scale,), rounds=1, iterations=1
    )
    text = render_table(point)
    print(text)
    results_sink(text)


def test_bench_worker_scaling(
    benchmark, bench_scale, results_sink, wall_clock_gates
):
    """Sharded execution never loses accuracy; its scaling is reported.

    One measured sweep feeds the published table and the gates:

    * accuracy, every width (always live): Eq. 8 holds per shard, so
      the merged estimate's mean loss must sit within the run's own
      reported §III-D error bound — a sharding bug that broke weight
      or count propagation would blow straight through it;
    * throughput (``REPRO_BENCH_GATES=1`` only), host-aware: with >= 2
      cores the 2-shard run holds >= 0.9x the single-process rate, and
      a bench-scale run on >= 4 cores reaches >= 2.5x at 4 shards.
    """
    points = benchmark.pedantic(
        run_worker_scaling, args=(bench_scale,), rounds=1, iterations=1
    )
    text = render_scaling_table(points)
    print(text)
    results_sink(text)

    by_width = {point.workers: point for point in points}
    for point in points:
        assert point.mean_loss_percent <= point.mean_bound_percent
    if not wall_clock_gates:
        return
    cores = os.cpu_count() or 1
    at_bench = os.environ.get("REPRO_BENCH_SCALE", "bench") == "bench"
    baseline = by_width[1]
    if cores >= 2:
        assert (
            by_width[2].items_per_second >= 0.9 * baseline.items_per_second
        )
    if at_bench and cores >= 4:
        assert (
            by_width[4].items_per_second >= 2.5 * baseline.items_per_second
        )
