"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one figure of the paper's evaluation at
bench scale, asserts the paper's qualitative shape, and hands the
rendered paper-style table to ``results_sink``.

The tables land in pytest's tmp dir (``<basetemp>/bench-tables*/
results.txt``), so a plain ``pytest`` leaves ``git status`` clean.
``REPRO_BENCH_PUBLISH=1`` additionally publishes a bench-scale
session to the tracked ``benchmarks/results.txt`` — the one way that
file is ever rewritten.

``REPRO_BENCH_SCALE=quick`` shrinks every benchmark to the unit-test
sizing — CI's smoke job uses it so the harness and the fastpath
kernels cannot rot between perf PRs. Quick sessions never publish,
asked or not: only bench-scale numbers go into ``results.txt``.

Wall-clock ratios (speedups, scaling) are always measured, printed and
published, but asserted only under ``REPRO_BENCH_GATES=1`` (the
``wall_clock_gates`` fixture): a single timing sample on a shared host
is noise, and tier-1 gates on deterministic counters — loss within
bound, bytes through the pipe, rng calls — never on clocks.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.base import ExperimentScale

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_PATH = BENCH_DIR / "results.txt"

#: Benchmark modules whose tests actually reached their call phase this
#: session. Collection-time snapshots are useless here: -k/-m
#: deselection happens after conftest collection hooks, and an
#: interrupted session never reports the missing modules at all.
_RAN_BENCH_MODULES: set[str] = set()


def pytest_runtest_logreport(report):
    if report.when == "call":
        name = pathlib.Path(str(report.fspath)).name
        if name.startswith("test_bench_"):
            _RAN_BENCH_MODULES.add(name)


_SCALES = {
    "quick": ExperimentScale.quick,
    "bench": ExperimentScale.bench,
}


def _scale_name() -> str:
    name = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if name not in _SCALES:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, "
            f"got {name!r}"
        )
    return name


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The sizing every figure benchmark runs at."""
    return _SCALES[_scale_name()]()


@pytest.fixture(scope="session")
def wall_clock_gates() -> bool:
    """Whether wall-clock ratio assertions are live this session."""
    return os.environ.get("REPRO_BENCH_GATES") == "1"


def _split_tables(text: str) -> list[str]:
    """Rendered tables as blocks (they are separated by blank lines)."""
    return [block for block in text.split("\n\n") if block.strip()]


def _merge_tables(existing: str, fresh: list[str]) -> str:
    """Update same-titled tables in place, append new ones at the end.

    A table's identity is its title (first line), so a selective run —
    ``pytest benchmarks/test_bench_fig5.py`` — refreshes only the
    tables it regenerated and leaves every other published table
    untouched.
    """
    by_title = {block.splitlines()[0]: block for block in fresh}
    merged = [
        by_title.pop(block.splitlines()[0], block)
        for block in _split_tables(existing)
    ]
    merged.extend(by_title.values())
    return "\n\n".join(merged) + "\n\n"


@pytest.fixture(scope="session")
def results_sink(request, tmp_path_factory):
    """Collect the session's rendered tables; publish them when asked.

    Tables accumulate in a file under pytest's tmp dir. Under
    ``REPRO_BENCH_PUBLISH=1``, at bench scale, the tracked
    ``results.txt`` is then swapped atomically at session end, so an
    interrupted session never truncates the previously published
    tables. A complete, green benchmark session publishes exactly its
    own tables (pruning tables whose benchmark was renamed or
    removed); a partial or failing session merges by table title,
    refreshing only what it regenerated.
    """
    scratch = tmp_path_factory.mktemp("bench-tables") / "results.txt"
    scratch.write_text("")

    def sink(text: str) -> None:
        with scratch.open("a") as handle:
            handle.write(text + "\n\n")

    yield sink

    asked = os.environ.get("REPRO_BENCH_PUBLISH") == "1"
    published = scratch.read_text()
    fresh = _split_tables(published)
    if not (asked and fresh and _scale_name() == "bench"):
        return  # smoke runs publish nothing, asked or not
    all_modules = {path.name for path in BENCH_DIR.glob("test_bench_*.py")}
    complete = _RAN_BENCH_MODULES >= all_modules
    if not (complete and request.session.testsfailed == 0):
        existing = RESULTS_PATH.read_text() if RESULTS_PATH.exists() else ""
        published = _merge_tables(existing, fresh)
    # Staged next to the target: os.replace must not cross filesystems.
    staged = RESULTS_PATH.with_name(RESULTS_PATH.name + ".tmp")
    staged.write_text(published)
    os.replace(staged, RESULTS_PATH)
