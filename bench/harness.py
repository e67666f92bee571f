"""The parent side: start workers, pool their rounds, report, self-check.

It never imports the program under test. The metric names, units and
bounds come from ``BENCHMARK.json`` at the root of the checkout, the one
place they are declared.

Protocol, and the noise that shaped it (see ``bench/README.md``): the
host slows down in one-sided bursts that last seconds to minutes. So a
round's op time is its **lower quartile** (the time the undisturbed ops
of the round took), a workload's rounds are spread out — interleaved
with the other workloads' rounds — and every end-to-end number is the
**median over the rounds**. Tail percentiles are printed as diagnostics
and never gated.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from statistics import median, quantiles

from bench import ROOT
from bench.host import environment

OUT = ROOT / "bench" / "out"

#: Rounds per workload. Fewer than five and one slow stretch of the
#: host owns the median; the time budget is met by shortening rounds.
ROUNDS = 5


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Running workers
# ----------------------------------------------------------------------
def run_worker(
    workload: str, seed: int, round_index: int, seconds: float,
    trace: bool = False,
) -> dict:
    """One fresh worker process; its result, plus ``setup_s``.

    ``setup_s`` spans process start to first timed op: interpreter and
    imports, job assembly, input pre-generation, shard spawn, warm-up.
    """
    command = [
        sys.executable, "-m", "bench.worker", "--workload", workload,
        "--seed", str(seed), "--round", str(round_index),
        "--seconds", str(seconds),
    ]
    if trace:
        command += ["--trace-out", str(OUT / f"trace-{workload}.json")]
    spawned = time.time()
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"worker for {workload!r} round {round_index} exited with "
            f"status {done.returncode}"
        )
    result = json.loads(done.stdout.splitlines()[-1])
    result["setup_s"] = result["ready_epoch"] - spawned
    return result


def measure(
    workloads: list[str], seed: int, seconds: float, rounds: int = ROUNDS,
) -> dict[str, list[dict]]:
    """``rounds`` interleaved rounds: ``A B C D A B C D …``.

    ``seconds`` is each workload's timed total, split evenly over its
    rounds. A slow minute on the host spoils a round or two of every
    workload instead of one workload's whole run.
    """
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for round_index in range(rounds):
        for name in workloads:
            results[name].append(
                run_worker(name, seed, round_index, seconds / rounds)
            )
    return results


# ----------------------------------------------------------------------
# Pooling rounds into metrics
# ----------------------------------------------------------------------
def _percentile(sorted_values: list[float], share: float) -> float:
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def _round_op(values: list[float]) -> float:
    """A round's op time: the lower quartile of its ops.

    Interference on this host only ever slows an op down, and it comes
    in bursts that can cover most of a 2-second round; the fastest
    quarter of a round's ops is what the code took when left alone.
    Measured over ten runs per workload, this statistic's run-to-run
    spread was 1.4-3.1 % where the per-round median's was 2.6-7.2 %.
    """
    return _percentile(sorted(values), 0.25)


def summarize(rounds: list[dict]) -> dict:
    """End-to-end metrics, diagnostics and output checks of one workload."""
    items = rounds[0]["items_per_op"]
    round_ops = [_round_op(r["op_s"]) for r in rounds]
    end_to_end = {
        "setup_s": median(r["setup_s"] for r in rounds),
        "items_per_s": median(items / op for op in round_ops),
        "cpu_us_per_item": median(
            1e6 * _round_op(r["cpu_s"]) / items for r in rounds
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    ops = sorted(op for r in rounds for op in r["op_s"])
    spread = 0.0
    if len(round_ops) > 1:
        low, _mid, high = quantiles(round_ops, n=4)
        spread = 100 * (high - low) / median(round_ops)
    diagnostics = {
        "ops_attempted": sum(r["attempted"] for r in rounds),
        "ops_failed": sum(r["failed"] for r in rounds),
        "op_p50_ms": 1e3 * _percentile(ops, 0.5),
        "op_p90_ms": 1e3 * _percentile(ops, 0.9),
        "op_min_ms": 1e3 * ops[0],
        "round_spread_pct": spread,
        "host.probe_ms": [round(r["probe_ms"], 2) for r in rounds],
        "loadavg": [round(r["loadavg"], 2) for r in rounds],
    }
    return {
        "end_to_end": end_to_end,
        "diagnostics": diagnostics,
        "checks": check_outputs(rounds),
    }


def check_outputs(rounds: list[dict]) -> dict[str, bool]:
    """The output checks behind ``correct`` and the exit status."""
    verdicts = [r["verdict"] for r in rounds]
    first = verdicts[0]["repeatable"]
    return {
        "no_failed_ops": all(r["failed"] == 0 for r in rounds),
        "windows_sane": all(v["ok"] for v in verdicts),
        "eq8_count_recovery": all(v["eq8"] for v in verdicts),
        "mean_loss_within_mean_bound": (
            sum(v["abs_loss"] for v in verdicts)
            <= sum(v["bound"] for v in verdicts)
        ),
        "repeats_across_rounds": all(
            v["repeatable"] == first for v in verdicts
        ),
    }


def passed(summary: dict) -> bool:
    return all(summary["checks"].values())


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _units(spec: dict, section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def print_summary(name: str, summary: dict, spec: dict) -> None:
    units = _units(spec, "end_to_end")
    print(f"== {name}")
    for metric, value in summary["end_to_end"].items():
        print(f"  {metric:<28} {value:>16.6g} {units[metric]}")
    for metric, value in summary["diagnostics"].items():
        shown = value if isinstance(value, list) else f"{value:>16.6g}"
        print(f"  {metric:<28} {shown}")
    for check, ok in summary["checks"].items():
        print(f"  check {check:<32} {'ok' if ok else 'FAILED'}")


def print_layers(name: str, layers: dict[str, float], spec: dict) -> None:
    units = _units(spec, "per_layer")
    print(f"== {name} (traced)")
    for metric, value in layers.items():
        print(f"  {metric:<44} {value:>16.6g} {units[metric]}")


def write_result(filename: str, payload: dict, loadavg_before: float) -> None:
    """Results go under ``bench/out/`` only; no tracked file is rewritten."""
    OUT.mkdir(parents=True, exist_ok=True)
    payload["environment"] = {
        **environment(ROOT),
        "loadavg_before": loadavg_before,
        "loadavg_after": os.getloadavg()[0],
    }
    (OUT / filename).write_text(json.dumps(payload, indent=1))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, rounds: int, trace: bool) -> int:
    """Every workload, interleaved; then one traced worker each."""
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    loadavg_before = os.getloadavg()[0]
    results = measure(names, seed, seconds, rounds)
    payload: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in names:
        summary = summarize(results[name])
        print_summary(name, summary, spec)
        ok = ok and passed(summary)
        payload["workloads"][name] = {**summary, "rounds": results[name]}
    if trace:
        for name in names:
            traced = run_worker(name, seed, rounds, seconds / rounds, trace=True)
            print_layers(name, traced["layers"], spec)
            ok = ok and all(check_outputs([traced]).values())
            payload["workloads"][name]["per_layer"] = traced["layers"]
    write_result("results.json", payload, loadavg_before)
    print(f"results: {OUT / 'results.json'}   outputs correct: {ok}")
    return 0 if ok else 1


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The driver's contract: one workload, one JSON object as last line."""
    spec = load_spec()
    loadavg_before = os.getloadavg()[0]
    if trace:
        # Each layer is measured on the workload that exercises it, so a
        # traced run visits every workload: the named one for the whole
        # of ``seconds``, the others for the minimum number of ops. The
        # two ``trace.*`` metrics reported are the named workload's.
        names = [w["name"] for w in spec["workloads"] if w["name"] != workload]
        rounds = [run_worker(workload, seed, 0, seconds, trace=True)]
        rounds += [run_worker(name, seed, 0, 0.0, trace=True) for name in names]
        layers: dict[str, float] = {}
        for traced in reversed(rounds):
            print_layers(traced["workload"], traced["layers"], spec)
            layers.update(traced["layers"])
        values = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        section = "per_layer"
        correct = all(
            ok for traced in rounds for ok in check_outputs([traced]).values()
        )
        attempted = sum(traced["attempted"] for traced in rounds)
        failed = sum(traced["failed"] for traced in rounds)
        payload = {"rounds": rounds}
    else:
        rounds = measure([workload], seed, seconds)[workload]
        summary = summarize(rounds)
        print_summary(workload, summary, spec)
        values = summary["end_to_end"]
        section = "end_to_end"
        correct = passed(summary)
        attempted = summary["diagnostics"]["ops_attempted"]
        failed = summary["diagnostics"]["ops_failed"]
        payload = {**summary, "rounds": rounds}
    if not all(math.isfinite(value) for value in values.values()):
        raise RuntimeError(f"non-finite metric in {values}")
    units = _units(spec, section)
    write_result(
        f"{workload}-trace{int(trace)}.json",
        {"seed": seed, "seconds": seconds, **payload}, loadavg_before,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


def selfcheck(seed: int, seconds: float) -> int:
    """Two complete sets of runs of the same code must agree.

    Prints, per (workload, end-to-end metric), how much worse the worse
    of the two sets reads than the better one, next to the metric's
    bound; exits non-zero if any pair is further apart than its bound.
    """
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    loadavg_before = os.getloadavg()[0]
    sets = []
    for _ in range(2):
        results = measure(names, seed, seconds)
        sets.append({name: summarize(results[name]) for name in names})
    agree = all(passed(s[name]) for s in sets for name in names)
    print(f"selfcheck, seed {seed}: same checkout measured twice")
    print(
        f"{'workload':<14} {'metric':<16} {'first':>12} {'second':>12} "
        f"{'worse by':>9} {'bound':>6}"
    )
    for name in names:
        for metric in spec["end_to_end"]:
            first, second = (
                s[name]["end_to_end"][metric["name"]] for s in sets
            )
            best, worst = sorted(
                (first, second), reverse=metric["better"] == "higher"
            )
            diff = abs(worst - best) / best
            within = diff <= metric["bound"]
            agree = agree and within
            print(
                f"{name:<14} {metric['name']:<16} {first:>12.5g} "
                f"{second:>12.5g} {100 * diff:>8.2f}% "
                f"{100 * metric['bound']:>5.0f}%{'' if within else '  DISAGREE'}"
            )
    write_result(
        "selfcheck.json", {"seed": seed, "seconds": seconds, "sets": sets},
        loadavg_before,
    )
    print(f"selfcheck {'passed' if agree else 'FAILED'}")
    return 0 if agree else 1
