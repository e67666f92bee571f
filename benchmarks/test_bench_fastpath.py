"""Benchmark: python vs numpy sampling backends on the Fig. 5 workload.

Times one full ``whsamp`` interval — stratify, allocate, draw the
survivor indices, gather — on both backends over the same Gaussian
sub-stream mix Fig. 5 uses, and appends the throughput comparison to
``benchmarks/results.txt``. The acceptance bar (numpy wins) is asserted
only under ``REPRO_BENCH_GATES=1`` (wall-clock; see conftest).
"""

from __future__ import annotations

import random
import time

import pytest

pytest.importorskip("numpy", reason="fastpath benchmark compares both backends")

from repro.core.fastpath import BACKEND_NUMPY, BACKEND_PYTHON
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


def run_fastpath_comparison(scale: ExperimentScale) -> tuple[str, float]:
    """Time both backends on one interval; return (table text, speedup)."""
    items = fig5_interval(scale)
    capacity = max(1, int(len(items) * SAMPLING_FRACTION))

    def whsamp_run(backend: str):
        def run() -> None:
            whsamp(
                items, capacity, rng=random.Random(scale.config.seed),
                backend=backend,
            )

        return run

    timings = {
        backend: best_of(whsamp_run(backend))
        for backend in (BACKEND_PYTHON, BACKEND_NUMPY)
    }
    speedup = timings[BACKEND_PYTHON] / timings[BACKEND_NUMPY]

    # Keep the title free of workload sizes: conftest refreshes tables
    # in results.txt by title, so the title must stay stable across
    # scale tuning.
    table = Table(
        "Fastpath: backend throughput on the Fig. 5 workload",
        ["kernel", "python items/s", "numpy items/s", "speedup"],
    )
    table.add_row(
        f"whsamp ({len(items)} items -> {capacity} slots)",
        f"{len(items) / timings[BACKEND_PYTHON]:,.0f}",
        f"{len(items) / timings[BACKEND_NUMPY]:,.0f}",
        f"{speedup:.1f}x",
    )
    return table.render(), speedup


def test_bench_fastpath(benchmark, bench_scale, results_sink, wall_clock_gates):
    """Numpy backend is faster on a full ``whsamp`` interval."""
    text, speedup = benchmark.pedantic(
        run_fastpath_comparison, args=(bench_scale,), rounds=1, iterations=1
    )
    results_sink(text)

    if not wall_clock_gates:
        return
    assert speedup > 1.0, speedup
