"""Smoke test of ``python -m bench --quick``: one round of three ops per
workload, no trace. Asserts that every named metric is present and
finite and that no op failed — never a wall-clock value, so nothing
here can flake tier-1 on a slow host."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_quick_run_reports_every_metric():
    pytest.importorskip("numpy")  # the benchmark measures the numpy backend
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads((ROOT / "bench" / "out" / "results.json").read_text())
    for workload in spec["workloads"]:
        summary = results["workloads"][workload["name"]]
        for metric in spec["end_to_end"]:
            value = summary["end_to_end"][metric["name"]]
            assert math.isfinite(value) and value > 0, metric["name"]
        for name, value in summary["diagnostics"].items():
            values = value if isinstance(value, list) else [value]
            assert all(math.isfinite(v) for v in values), name
        assert summary["diagnostics"]["ops_attempted"] >= 3
        assert summary["diagnostics"]["ops_failed"] == 0
        assert all(summary["checks"].values()), summary["checks"]
