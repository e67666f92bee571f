"""The four workloads: what one op is, how it is checked, what its trace yields.

Closed loop, one client: the worker process calls ``op()`` again as
soon as the previous call returned. Each workload stresses different
layers (see ``bench/README.md`` for why each exists and which one is
the control for which change):

* ``stat-e2e`` — a whole statistical run, generation included.
* ``tree-replay`` — the sampling tree alone, on pre-emitted windows.
* ``sharded-2w`` — two shard processes at a large fraction.
* ``deploy-replay`` — the deployment simulator on replayed inputs.

Every class has the same surface: ``op()`` runs one op and returns
whether its output passed the per-op check; ``verify(round)`` runs the
output checks on fresh windows; ``start_trace`` / ``traced_op`` /
``layer_metrics`` produce the per-layer numbers from outside.
"""

from __future__ import annotations

import math
import time
from statistics import median

from bench import adapter
from bench.adapter import WINDOW_ITEMS, Window
from bench.host import children_cpu_seconds
from bench.trace import TimedTransport, Tracer

#: Fresh windows each worker verifies after its timed ops; five rounds
#: of a run verify 20 between them, each round on its own seed.
VERIFY_WINDOWS = 4


def _sane(rows: list[Window], windows: int) -> bool:
    """Every window is there, full, sampled, and finite."""
    return len(rows) == windows and all(
        row.emitted == WINDOW_ITEMS
        and 0 < row.at_root <= row.emitted
        and row.bound > 0
        and math.isfinite(row.exact + row.approx + row.bound)
        for row in rows
    )


def _verdict(rows: list[Window]) -> dict:
    """The output checks of one worker, poolable across rounds.

    Eq. 8 count recovery uses the unit tests' own tolerance (rel 1e-9).
    ``abs_loss`` and ``bound`` are summed so the parent can check mean
    loss ≤ mean reported bound over all the rounds' windows together.
    """
    eq8 = all(
        row.recovered is None
        or abs(row.recovered - row.emitted) <= 1e-9 * row.emitted
        for row in rows
    )
    return {
        "ok": eq8 and _sane(rows, len(rows)),
        "eq8": eq8,
        "windows": len(rows),
        "abs_loss": sum(abs(row.approx - row.exact) for row in rows),
        "bound": sum(row.bound for row in rows),
        "repeatable": None,
    }


class StatE2E:
    """op = ``StatisticalRunner.run(4)``: 400 k items, fraction 0.1."""

    name = "stat-e2e"
    FRACTION = 0.1
    WINDOWS = 4
    items_per_op = WINDOWS * WINDOW_ITEMS

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._job = adapter.StatJob(seed, self.FRACTION)

    def op(self) -> bool:
        return _sane(self._job.run(self.WINDOWS), self.WINDOWS)

    def close(self) -> None:
        self._job.close()

    def verify(self, round_index: int) -> dict:
        job = adapter.StatJob(self._seed + 1 + round_index, self.FRACTION)
        return _verdict(
            [job.window_with_theta() for _ in range(VERIFY_WINDOWS)]
        )

    def start_trace(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._staged = adapter.StatJob(self._seed, self.FRACTION)
        self._rows: list[list[Window]] = []

    def traced_op(self) -> bool:
        with self._tracer.op():
            rows = [
                self._staged.staged_window(self._tracer.span)
                for _ in range(self.WINDOWS)
            ]
        self._rows.append(rows)
        return _sane(rows, self.WINDOWS)

    def layer_metrics(self, untraced_ms: float) -> dict[str, float]:
        stages = {
            "workloads.emit_window_ms": "workloads.emit_window",
            "core.columns.exact_sum_ms": "core.columns.exact_sum",
            "engine.runner.run_approxiot_ms": "engine.runner.run_approxiot",
            "engine.runner.run_srs_ms": "engine.runner.run_srs",
        }
        metrics = {
            metric: self._tracer.median_ms(span)
            for metric, span in stages.items()
        }
        metrics["engine.runner.other_ms"] = untraced_ms - sum(metrics.values())
        metrics["workloads.items_emitted"] = median(
            sum(row.emitted for row in rows) for rows in self._rows
        )
        metrics["core.whs.items_at_root"] = median(
            sum(row.at_root for row in rows) for rows in self._rows
        )
        return metrics


class TreeReplay:
    """op = 8 passes of 16 stored windows through ``run_approxiot``."""

    name = "tree-replay"
    FRACTION = 0.1
    STORED = 16
    PASSES = 8
    items_per_op = STORED * PASSES * WINDOW_ITEMS

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._job = adapter.TreeJob(seed, self.FRACTION, self.STORED)

    def _full(self, at_root: int) -> bool:
        return 0 < at_root <= self.STORED * self.PASSES * self._job.root_budget

    def op(self) -> bool:
        return self._full(self._job.replay_all(self.PASSES))

    def close(self) -> None:
        pass

    def verify(self, round_index: int) -> dict:
        job = adapter.TreeJob(
            self._seed + 1 + round_index, self.FRACTION, VERIFY_WINDOWS
        )
        return _verdict(
            [job.window(index, job.replay(index)) for index in range(len(job))]
        )

    def start_trace(self, tracer: Tracer) -> None:
        self._tracer = tracer
        layers = adapter.sampling_layers()

        def wrap(inner) -> TimedTransport:
            self._transport = TimedTransport(inner, layers)
            return self._transport

        self._traced = adapter.TreeJob(
            self._seed, self.FRACTION, self.STORED, wrap_transport=wrap
        )
        self._counts: list[dict[str, int]] = []

    def traced_op(self) -> bool:
        tracer, job, transport = self._tracer, self._traced, self._transport
        sends = transport.sends
        items_in = dict(transport.items_in)
        theta_items = 0
        with tracer.op():
            for _ in range(self.PASSES):
                for index in range(self.STORED):
                    start = time.perf_counter()
                    state = job.replay(index)
                    end = time.perf_counter()
                    # Stage boundaries of this window, bottom-up: inject
                    # ends where the first layer starts collecting, each
                    # layer ends where the next one starts.
                    stages = [("inject", start), *transport.take_marks()]
                    for (stage, begin), (_, until) in zip(
                        stages, [*stages[1:], ("", end)]
                    ):
                        name = (
                            "engine.runner.inject" if stage == "inject"
                            else f"core.whs.sample.{stage}"
                        )
                        tracer.add(name, begin, until)
                    # The root stage ends with the estimate; calling it
                    # again, directly, is how its share is told apart.
                    root_span = len(tracer.spans) - 1
                    with tracer.paused():
                        begin = time.perf_counter()
                        theta_items += job.estimate(state)
                        tracer.add(
                            "core.error_bounds.estimate", begin,
                            time.perf_counter(), parent=root_span,
                        )
        self._counts.append({
            "engine.transport.sends": transport.sends - sends,
            **{
                f"engine.transport.items_in.{layer}": count - items_in[layer]
                for layer, count in transport.items_in.items()
            },
            "core.estimator.theta_items": theta_items,
        })
        return self._full(theta_items)

    def layer_metrics(self, untraced_ms: float) -> dict[str, float]:
        tracer = self._tracer
        estimate_ms = tracer.median_ms("core.error_bounds.estimate")
        metrics = {
            "engine.runner.inject_ms": tracer.median_ms("engine.runner.inject"),
            "core.whs.sample_ms.l1": tracer.median_ms("core.whs.sample.l1"),
            "core.whs.sample_ms.l2": tracer.median_ms("core.whs.sample.l2"),
            "core.whs.sample_ms.root": (
                tracer.median_ms("core.whs.sample.root") - estimate_ms
            ),
            "core.error_bounds.estimate_ms": estimate_ms,
        }
        for name in self._counts[0]:
            metrics[name] = median(counts[name] for counts in self._counts)
        # Theta holds exactly the items that reached the root.
        metrics["core.whs.keep_ratio"] = (
            metrics["core.estimator.theta_items"] / self.items_per_op
        )
        return metrics


class Sharded2W:
    """op = ``StatisticalRunner.run(4)`` on 2 shard processes, fraction 0.8.

    The worker is pinned to one CPU, so the two shards take turns on it:
    the op costs what the inline twin costs plus the process path
    (spawned shards, pipe / shared-memory ring, codec, context switches).
    """

    name = "sharded-2w"
    FRACTION = 0.8
    WINDOWS = 4
    WORKERS = 2
    items_per_op = WINDOWS * WINDOW_ITEMS

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._job = self._make(seed)

    def _make(self, seed: int, inline: bool = False) -> adapter.StatJob:
        return adapter.StatJob(
            seed, self.FRACTION, workers=self.WORKERS, inline=inline
        )

    def op(self) -> bool:
        return _sane(self._job.run(self.WINDOWS), self.WINDOWS)

    def close(self) -> None:
        self._job.close()

    def verify(self, round_index: int) -> dict:
        """Loss ≤ bound, and the process run equals its inline twin."""
        seed = self._seed + 1 + round_index
        process, inline = self._make(seed), self._make(seed, inline=True)
        try:
            rows = process.run(VERIFY_WINDOWS)
            twin = inline.run(VERIFY_WINDOWS)
        finally:
            process.close()
            inline.close()
        verdict = _verdict(rows)
        verdict["ok"] = verdict["ok"] and rows == twin
        return verdict

    def start_trace(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._ops: list[dict[str, float]] = []
        # Spawn cost: a fresh runner's first window (shards start
        # lazily) against its second, which no longer spawns.
        start = time.perf_counter()
        fresh = self._make(self._seed)
        try:
            fresh.run(1)
            first = time.perf_counter()
            fresh.run(1)
            second = time.perf_counter()
        finally:
            fresh.close()
        self._spawn_s = (first - start) - (second - first)
        # The single-process baseline of the same job.
        inline = self._make(self._seed, inline=True)
        inline.run(self.WINDOWS)
        times = []
        for _ in range(3):
            begin = time.perf_counter()
            inline.run(self.WINDOWS)
            times.append(time.perf_counter() - begin)
        inline.close()
        self._inline_ms = 1e3 * median(times)
        self._codec = adapter.codec_probe(
            self._seed, self.FRACTION, self.WORKERS
        )

    def traced_op(self) -> bool:
        before = self._job.ipc_stats()
        own, kids = time.process_time(), children_cpu_seconds()
        begin = time.perf_counter()
        with self._tracer.op(), self._tracer.span("engine.sharding.run"):
            rows = self._job.run(self.WINDOWS)
        wall = time.perf_counter() - begin
        own = time.process_time() - own
        kids = children_cpu_seconds() - kids
        after = self._job.ipc_stats()
        delta = {
            key: after[key] - before[key]
            for key in after if key != "transport"
        }
        windows = delta["windows"]
        self._ops.append({
            "engine.sharding.parent_cpu_ms": 1e3 * own,
            "engine.sharding.child_cpu_ms": 1e3 * kids,
            "engine.sharding.parent_share": own / wall,
            "engine.sharding.encode_ms_per_window":
                1e3 * delta["encode_seconds"] / windows,
            "engine.sharding.decode_ms_per_window":
                1e3 * delta["decode_seconds"] / windows,
            "engine.sharding.theta_bytes_per_window":
                delta["theta_bytes_encoded"] / windows,
            "engine.sharding.pipe_bytes_per_window":
                delta["bytes_through_pipe"] / windows,
            "engine.sharding.ring_overflows": delta["ring_overflows"],
            "engine.sharding.restarts": delta["restarts"],
            "engine.sharding.timeouts": delta["timeouts"],
        })
        return (
            _sane(rows, self.WINDOWS)
            and delta["restarts"] == 0 and delta["timeouts"] == 0
        )

    def layer_metrics(self, untraced_ms: float) -> dict[str, float]:
        metrics = {
            name: median(op[name] for op in self._ops)
            for name in self._ops[0]
        }
        codec = self._codec
        megabytes = codec["frame_bytes"] / 1e6
        metrics.update({
            "engine.sharding.spawn_s": self._spawn_s,
            "engine.sharding.inline_op_ms": self._inline_ms,
            "engine.sharding.speedup_vs_inline": self._inline_ms / untraced_ms,
            "broker.records.frame_bytes": codec["frame_bytes"],
            "broker.records.encode_mb_per_s": megabytes / codec["encode_s"],
            "broker.records.decode_mb_per_s": megabytes / codec["decode_s"],
            "core.estimator.merge_ms": 1e3 * codec["merge_s"],
        })
        return metrics


class DeployReplay:
    """op = one Fig. 6 point (approxiot 0.1, srs 0.1, native 1.0) × 8 windows."""

    name = "deploy-replay"
    WINDOWS = 8
    items_per_op = len(adapter.DEPLOY_MODES) * WINDOWS * WINDOW_ITEMS

    def __init__(self, seed: int) -> None:
        self._job = adapter.DeployJob(seed, self.WINDOWS)
        #: The first op's reports: every later op must simulate the same.
        self._reference: dict | None = None

    def _check(self, reports: dict[str, dict]) -> bool:
        if self._reference is None:
            self._reference = reports
        native = reports["native"]
        return (
            reports == self._reference
            and native["items_at_root"] == native["items_emitted"]
            and all(
                report["items_emitted"] == self.WINDOWS * WINDOW_ITEMS
                for report in reports.values()
            )
        )

    def op(self) -> bool:
        return self._check(self._job.point())

    def close(self) -> None:
        pass

    def verify(self, round_index: int) -> dict:
        """Nothing fresh to run: every op was checked against the first.

        The first op's simulated throughput, latency and bytes go back
        to the parent, which requires them identical across rounds.
        """
        verdict = _verdict([])
        verdict["repeatable"] = self._reference
        return verdict

    def start_trace(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._reports: list[dict[str, dict]] = []
        self._generate_ms: list[float] = []

    def traced_op(self) -> bool:
        replayed = self._job.replay_seconds
        with self._tracer.op():
            reports = self._job.point(self._tracer.span)
        self._generate_ms.append(
            1e3 * (self._job.replay_seconds - replayed)
        )
        self._reports.append(reports)
        return self._check(reports)

    def layer_metrics(self, untraced_ms: float) -> dict[str, float]:
        tracer = self._tracer
        reports = self._reports[0]  # identical on every op, by _check
        metrics = {
            "system.deployment.build_ms":
                tracer.median_ms("system.deployment.build."),
            "simnet.latency_records": sum(
                report["latency_records"] for report in reports.values()
            ),
            "bench.replay.generate_ms": median(self._generate_ms),
        }
        for mode, report in reports.items():
            metrics[f"system.deployment.run_ms.{mode}"] = tracer.median_ms(
                f"system.deployment.run.{mode}"
            )
            metrics[f"system.deployment.items_at_root.{mode}"] = (
                report["items_at_root"]
            )
            metrics[f"simnet.boundary_bytes.root.{mode}"] = (
                report["boundary_bytes"][-1]
            )
        return metrics


WORKLOADS = {
    cls.name: cls for cls in (StatE2E, TreeReplay, Sharded2W, DeployReplay)
}
