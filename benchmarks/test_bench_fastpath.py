"""Benchmark: python vs numpy sampling backends on the Fig. 5 workload.

Measures the two hot-path kernels the fast path vectorizes — streaming
reservoir sampling and the full ``whsamp`` interval — over the same
Gaussian sub-stream mix Fig. 5 uses, and appends the throughput
comparison to ``benchmarks/results.txt``. The acceptance bar is a
>= 5x speedup for the numpy backend on batch reservoir sampling,
asserted only under ``REPRO_BENCH_GATES=1`` (wall-clock; see conftest).
"""

from __future__ import annotations

import random
import time

import pytest

pytest.importorskip("numpy", reason="fastpath benchmark compares both backends")

from repro.core.fastpath import BACKEND_NUMPY, BACKEND_PYTHON, make_reservoir_sampler
from repro.core.whs import whsamp
from repro.experiments.base import ExperimentScale, gaussian_generators, uniform_schedule
from repro.metrics.report import Table

#: Interval length fed to the samplers; at bench scale (rate 0.25 x
#: 25k/s x 4 sub-streams) this materialises ~100k items, comfortably
#: above a production node's per-second interval volume.
INTERVAL_SECONDS = 4.0
SAMPLING_FRACTION = 0.1
TIMING_ROUNDS = 3


def fig5_interval(scale: ExperimentScale) -> list:
    """One interval of the Fig. 5 Gaussian workload, arrival-shuffled."""
    generators = gaussian_generators()
    schedule = uniform_schedule(scale.rate_scale)
    rng = random.Random(scale.config.seed)
    items = []
    for substream, rate in sorted(schedule.rates.items()):
        count = int(rate * INTERVAL_SECONDS)
        items.extend(generators[substream].generate(count, rng))
    rng.shuffle(items)
    return items


def best_of(fn, rounds: int = TIMING_ROUNDS) -> float:
    """Best wall-clock of ``rounds`` runs (discards warm-up jitter)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_fastpath_comparison(scale: ExperimentScale) -> tuple[str, dict[str, float]]:
    """Time both backends on both kernels; return (table text, speedups)."""
    items = fig5_interval(scale)
    capacity = max(1, int(len(items) * SAMPLING_FRACTION))

    def reservoir_run(backend: str):
        def run() -> None:
            sampler = make_reservoir_sampler(
                capacity, random.Random(scale.config.seed), backend=backend
            )
            sampler.extend(items)

        return run

    def whsamp_run(backend: str):
        def run() -> None:
            whsamp(
                items, capacity, rng=random.Random(scale.config.seed),
                backend=backend,
            )

        return run

    timings = {
        "reservoir": {
            backend: best_of(reservoir_run(backend))
            for backend in (BACKEND_PYTHON, BACKEND_NUMPY)
        },
        "whsamp": {
            backend: best_of(whsamp_run(backend))
            for backend in (BACKEND_PYTHON, BACKEND_NUMPY)
        },
    }
    speedups = {
        kernel: by_backend[BACKEND_PYTHON] / by_backend[BACKEND_NUMPY]
        for kernel, by_backend in timings.items()
    }

    # Keep the title free of workload sizes: conftest refreshes tables
    # in results.txt by title, so the title must stay stable across
    # scale tuning.
    table = Table(
        "Fastpath: backend throughput on the Fig. 5 workload",
        ["kernel", "python items/s", "numpy items/s", "speedup"],
    )
    for kernel, by_backend in timings.items():
        table.add_row(
            f"{kernel} ({len(items)} items -> {capacity} slots)",
            f"{len(items) / by_backend[BACKEND_PYTHON]:,.0f}",
            f"{len(items) / by_backend[BACKEND_NUMPY]:,.0f}",
            f"{speedups[kernel]:.1f}x",
        )
    return table.render(), speedups


def test_bench_fastpath(benchmark, bench_scale, results_sink, wall_clock_gates):
    """Numpy backend is >= 5x faster on batch reservoir sampling."""
    text, speedups = benchmark.pedantic(
        run_fastpath_comparison, args=(bench_scale,), rounds=1, iterations=1
    )
    results_sink(text)

    if not wall_clock_gates:
        return
    assert speedups["reservoir"] >= 5.0, speedups
    # The full whsamp interval amortises grouping/allocation overhead
    # shared by both backends, so the bar is lower but must still win.
    assert speedups["whsamp"] > 1.0, speedups
