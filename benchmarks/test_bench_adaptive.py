"""Adaptive budget controller benchmarks (the §IV-B loop, in-run).

Publishes the adaptive-vs-static quality matrix to ``results.txt``:
at *equal total budget*, the ``variance_aware`` controller's Neyman
reallocation beats the static ``getSampleSize`` split at every probed
fraction on at least 3 built-in scenarios — on the mean over
``GATE_SEEDS``, since one seed decides a head-to-head by luck (the
same reading as ``tests/system/test_adaptive_quality.py``) — and the
``adaptive_fraction``
controller visibly sheds budget down to its error target without
breaking the Eq. 9 result-plus-error contract. A third table shows the
quality guarantees surviving worker-sharded execution (controller
decisions replayed from broadcast observations).
"""

from dataclasses import replace
from statistics import mean

from repro.experiments.base import (
    base_config,
    gaussian_generators,
    uniform_schedule,
)
from repro.metrics.report import Table
from repro.scenarios import get_scenario, scenario_names
from repro.system.scenarios import ScenarioRunner

#: Equal-total-budget comparison fractions (the paper's low operating
#: points, where allocation quality dominates).
FRACTIONS = (0.05, 0.1, 0.2)

#: How many seeds, from the scale's own, the quality matrix averages.
GATE_SEEDS = 8


def run_scenario(name, scale, fraction, controller, workers=1, seed=None):
    config = replace(
        base_config(fraction, scale),
        budget_controller=controller, workers=workers,
    )
    if seed is not None:
        config = replace(config, seed=seed)
    with ScenarioRunner(
        config, uniform_schedule(scale.rate_scale), gaussian_generators(),
        get_scenario(name),
    ) as runner:
        return runner.run()


def test_bench_adaptive_vs_static(benchmark, bench_scale, results_sink):
    """Quality-over-time matrix: Neyman reallocation vs static split."""
    first = bench_scale.config.seed
    seeds = range(first, first + GATE_SEEDS)

    def run():
        cells = {}
        for name in scenario_names():
            for fraction in FRACTIONS:
                cells[name, fraction] = [
                    (
                        run_scenario(
                            name, bench_scale, fraction, "static", seed=seed
                        ).mean_approxiot_loss,
                        run_scenario(
                            name, bench_scale, fraction, "variance_aware",
                            seed=seed,
                        ),
                    )
                    for seed in seeds
                ]
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Adaptive budget controller vs static split (equal total budget)",
        ["scenario", "fraction", "mean static loss",
         "mean variance-aware loss", "mean adaptive bound", "winner",
         "seeds won", "gain range"],
    )
    winners = []
    for name in scenario_names():
        swept = True
        for fraction in FRACTIONS:
            runs = cells[name, fraction]
            gains = [
                static - adaptive.mean_approxiot_loss
                for static, adaptive in runs
            ]
            static = mean(static for static, _ in runs)
            adaptive = mean(a.mean_approxiot_loss for _, a in runs)
            bound = mean(a.mean_bound_pct for _, a in runs)
            if adaptive >= static:
                swept = False
            table.add_row(
                name, f"{fraction:.2f}", f"{static:.4f}%",
                f"{adaptive:.4f}%", f"{bound:.4f}%",
                "variance_aware" if adaptive < static else "static",
                f"{sum(gain > 0 for gain in gains)}/{len(gains)}",
                f"{min(gains):+.4f}..{max(gains):+.4f} pp",
            )
        if swept:
            winners.append(name)
    results_sink(table.render())
    # The PR's headline gate: on the seed-averaged matrix, the adaptive
    # controller sweeps every probed fraction on at least 3 of the
    # built-in scenarios. The per-seed spread is printed, not gated.
    assert len(winners) >= 3, (
        f"variance_aware swept every fraction only on {winners}"
    )


def test_bench_adaptive_fraction_trace(benchmark, bench_scale, results_sink):
    """The fraction controller sheds budget toward its error target."""

    def run():
        adaptive = run_scenario(
            "drift", bench_scale, 0.2, "adaptive_fraction"
        )
        static = run_scenario("drift", bench_scale, 0.2, "static")
        return adaptive, static

    adaptive, static = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Adaptive fraction controller — budget trace (drift, f=0.2)",
        ["window", "static budget", "adaptive budget", "loss", "bound"],
    )
    for sw, aw in zip(static.windows, adaptive.windows):
        table.add_row(
            aw.window, sw.budget, aw.budget,
            f"{aw.approxiot_loss:.4f}%", f"{aw.bound_pct:.4f}%",
        )
    results_sink(table.render())
    budgets = [w.budget for w in adaptive.windows]
    # At a rich fraction the bound sits far below the 5% target: the
    # controller starts at the static budget and only ever sheds.
    assert budgets[0] == static.windows[0].budget
    assert all(b >= a for b, a in zip(budgets, budgets[1:]))
    assert budgets[-1] < budgets[0]
    assert adaptive.mean_approxiot_loss <= adaptive.mean_bound_pct


def test_bench_adaptive_sharding(benchmark, bench_scale, results_sink):
    """The quality contract survives worker sharding."""

    def run():
        rows = {}
        for workers in (1, 2):
            outcome = run_scenario(
                "drift", bench_scale, 0.1, "variance_aware", workers=workers
            )
            rows[workers] = (
                outcome.mean_approxiot_loss, outcome.mean_bound_pct
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "Variance-aware controller across shards (drift, f=0.1)",
        ["workers", "mean loss", "mean bound", "in bound"],
    )
    for workers, (loss, bound) in rows.items():
        table.add_row(
            workers, f"{loss:.4f}%", f"{bound:.4f}%",
            "yes" if loss <= bound else "NO",
        )
        assert loss <= bound, (
            f"workers={workers}: adaptive loss {loss:.4f}% "
            f"exceeds the reported bound {bound:.4f}%"
        )
    results_sink(table.render())
