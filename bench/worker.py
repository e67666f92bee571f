"""One worker process: one workload, one round.

``python -m bench.worker --workload W --seed N --round R --seconds S``
sets the workload up, warms it, times ops for ``S`` seconds (at least
``MIN_OPS``), runs the output checks, and prints one JSON object as its
last line. The parent (``bench.harness``) starts a fresh worker per
round so that set-up is paid — and measured — every round, and so that
rounds of different workloads can be interleaved.

With ``--trace-out FILE`` the worker alternates untraced and traced ops
instead, and also returns the per-layer metrics; the spans go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Callable

from bench import host
from bench.trace import Tracer
from bench.workloads import WORKLOADS

#: Untimed ops before the clock starts: caches fill, lazy set-up
#: (shard spawn, numpy dispatch tables) finishes. Part of ``setup_s``.
WARMUP_OPS = 3
#: Ops timed even when ``--seconds`` has already run out (``--quick``).
MIN_OPS = 3


def _timed(op: Callable[[], bool]) -> tuple[float, float, bool]:
    """Wall seconds, CPU seconds (worker + children) and verdict of one op.

    An op that raises is a failed op: the traceback goes to stderr and
    the round carries on, so the failure is counted, not lost.
    """
    cpu = host.cpu_seconds()
    start = time.perf_counter()
    try:
        passed = op()
    except Exception:
        traceback.print_exc()
        passed = False
    wall = time.perf_counter() - start
    return wall, host.cpu_seconds() - cpu, passed


def run_round(
    name: str, seed: int, round_index: int, seconds: float,
    trace_out: Path | None,
) -> dict:
    """Set up, warm, time, check; everything the parent aggregates."""
    cpu = host.pin_to_one_cpu()
    workload = WORKLOADS[name](seed)
    try:
        for _ in range(WARMUP_OPS):
            workload.op()
        tracer = None
        if trace_out is not None:
            tracer = Tracer()
            workload.start_trace(tracer)
        probe_ms = host.probe_ms()
        load = os.getloadavg()[0]
        ready_epoch = time.time()
        deadline = time.perf_counter() + seconds
        plain: list[tuple[float, float, bool]] = []
        traced: list[tuple[float, float, bool]] = []
        while len(plain) < MIN_OPS or time.perf_counter() < deadline:
            plain.append(_timed(workload.op))
            if tracer is not None:
                traced.append(_timed(workload.traced_op))
        peak_rss_mb = host.peak_rss_mb()
        result = {
            "workload": name,
            "round": round_index,
            "cpu": cpu,
            "items_per_op": workload.items_per_op,
            "ready_epoch": ready_epoch,
            "probe_ms": probe_ms,
            "loadavg": load,
            "op_s": [wall for wall, _cpu, _ok in plain],
            "cpu_s": [cpu for _wall, cpu, _ok in plain],
            "failed": sum(not ok for *_, ok in plain + traced),
            "attempted": len(plain) + len(traced),
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            layers = workload.layer_metrics(1e3 * median(result["op_s"]))
            # Each traced op is compared with the untraced op that ran
            # just before it, so a slow stretch of the host hits both.
            layers["trace.coverage"] = median(
                covered / untraced for covered, untraced
                in zip(tracer.covered_seconds(), result["op_s"])
            )
            layers["trace.overhead_pct"] = 100 * median(
                traced_s / untraced - 1 for traced_s, untraced
                in zip(tracer.op_seconds(), result["op_s"])
            )
            result["layers"] = layers
            _write_spans(trace_out, name, seed, tracer)
        result["verdict"] = workload.verify(round_index)
    finally:
        workload.close()
    return result


def _write_spans(path: Path, name: str, seed: int, tracer: Tracer) -> None:
    """The trace file: spans in seconds from the first span's start."""
    origin = tracer.spans[0]["start"]
    spans = [
        {**span, "start": span["start"] - origin, "end": span["end"] - origin}
        for span in tracer.spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"workload": name, "seed": seed, "unit": "s", "spans": spans}
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run_round(
        args.workload, args.seed, args.round, args.seconds, args.trace_out
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
