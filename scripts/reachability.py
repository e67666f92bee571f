#!/usr/bin/env python3
"""Which ``src/repro`` lines do real runs reach? A stdlib line counter.

Runs, in this process and under one ``sys.settrace`` line tracer:

* ``figures --scale quick`` — every evaluation figure;
* every catalog scenario at quick scale, plus one sharded adaptive run
  (``churn --workers 2 --budget-controller variance_aware``);
* every ``examples/*.py`` script.

Tests do not count: a line that only a test reaches has no user.
Forked shard processes inherit the tracer and write the lines they
reached to a scratch file when they exit, so shard-side code counts.

A module's *total* is its executable lines — the line table of its
compiled code, so blank lines, comments and docstring bodies do not
count. A line run only at import (``def``, ``class``, constants) counts
as reached, so the table also gives each module's functions that no run
ever entered; ``--uncalled`` lists them by name.

Usage:  PYTHONPATH=src python scripts/reachability.py [--uncalled]
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import multiprocessing.util
import os
import runpy
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = str(SRC / "repro") + os.sep


class LineCounter:
    """The lines and code objects of ``src/repro`` that traced frames ran.

    ``reached`` maps a filename to the line numbers executed in it, and
    ``entered`` to the first line numbers of the code objects called.
    Frames outside the package get no line tracing at all, which keeps
    the traced run within a few times its untraced cost.
    """

    def __init__(self) -> None:
        self.reached: dict[str, set[int]] = defaultdict(set)
        self.entered: dict[str, set[int]] = defaultdict(set)

    def trace_call(self, frame, event, arg):
        """``sys.settrace`` hook: pick the frames whose lines to count."""
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        self.entered[code.co_filename].add(code.co_firstlineno)
        self.reached[code.co_filename].add(frame.f_lineno)
        return self.trace_line

    def trace_line(self, frame, event, arg):
        """Per-frame hook: record each line the frame executes."""
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self.trace_line

    def count_forked_children(self, outdir: str) -> None:
        """Have every process ``multiprocessing`` forks dump at exit.

        A forked shard inherits the tracer and a copy of this counter;
        ``multiprocessing`` runs the after-fork hook once it has cleared
        the finalizers the child inherited, and the registered finalizer
        runs when the shard's main function returns.
        """

        def arm(counter: "LineCounter") -> None:
            multiprocessing.util.Finalize(
                None, counter.dump, args=(outdir,), exitpriority=0
            )

        multiprocessing.util.register_after_fork(self, arm)

    def dump(self, outdir: str) -> None:
        """Write this process's counts as one JSON file in ``outdir``."""
        sys.settrace(None)
        data = {
            "reached": {f: sorted(v) for f, v in self.reached.items()},
            "entered": {f: sorted(v) for f, v in self.entered.items()},
        }
        path = Path(outdir) / f"shard-{os.getpid()}.json"
        path.write_text(json.dumps(data))

    def merge_dumps(self, outdir: str) -> int:
        """Fold in every child's dump; return how many there were."""
        files = sorted(Path(outdir).glob("shard-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for name, lines in data["reached"].items():
                self.reached[name].update(lines)
            for name, lines in data["entered"].items():
                self.entered[name].update(lines)
        return len(files)


def _cli_workloads(scenario_names: list[str]) -> list[list[str]]:
    """The ``python -m repro`` argument lists the audit runs."""
    quick = ["--scale", "quick"]
    return [
        ["figures", *quick],
        *(["scenarios", "run", name, *quick] for name in scenario_names),
        [
            "scenarios", "run", "churn", *quick,
            "--workers", "2", "--budget-controller", "variance_aware",
        ],
    ]


def run_workloads(counter: LineCounter) -> int:
    """Run every workload traced; return the shard processes merged."""
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="reachability-") as outdir:
        counter.count_forked_children(outdir)
        sys.settrace(counter.trace_call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                # Imported under the tracer: import-time lines count.
                from repro.cli import main
                from repro.scenarios.catalog import scenario_names

                for argv in _cli_workloads(scenario_names()):
                    if main(argv) != 0:
                        raise RuntimeError(f"repro {' '.join(argv)} failed")
                for script in sorted((REPO_ROOT / "examples").glob("*.py")):
                    runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.settrace(None)
        return counter.merge_dumps(outdir)


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _is_function(code: types.CodeType) -> bool:
    # Class bodies and the module run at import; comprehensions and
    # lambdas (``<listcomp>``, ``<lambda>``) are parts of a function.
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and not (
        code.co_name.startswith("<")
    )


def module_report(
    counter: LineCounter, path: Path
) -> tuple[int, int, list[str]]:
    """``(reached, total, uncalled function names)`` for one module."""
    module = compile(path.read_text(), str(path), "exec")
    executable: set[int] = set()
    uncalled: list[str] = []
    entered = counter.entered[str(path)]
    for code in _code_objects(module):
        executable.update(
            line for _, _, line in code.co_lines() if line is not None
        )
        if _is_function(code) and code.co_firstlineno not in entered:
            uncalled.append(f"{code.co_qualname}:{code.co_firstlineno}")
    reached = executable & counter.reached[str(path)]
    return len(reached), len(executable), uncalled


def render(counter: LineCounter, show_uncalled: bool) -> str:
    """The per-module table (Markdown), package subtotals included."""
    rows = [
        "| module | reached / total lines | % | functions never entered |",
        "| --- | ---: | ---: | ---: |",
    ]
    details: list[str] = []
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for path in sorted((SRC / "repro").rglob("*.py")):
        reached, total, uncalled = module_report(counter, path)
        label = path.relative_to(SRC / "repro").as_posix()
        package = label.split("/")[0] if "/" in label else "(top level)"
        for index, value in enumerate((reached, total, len(uncalled))):
            totals[package][index] += value
        pct = 100.0 * reached / total if total else 100.0
        rows.append(
            f"| `{label}` | {reached} / {total} | {pct:.0f} | {len(uncalled)} |"
        )
        if show_uncalled and uncalled:
            details.append(f"{label}: {', '.join(uncalled)}")
    rows += ["", "| package | reached / total lines | % | functions never entered |",
             "| --- | ---: | ---: | ---: |"]
    grand = [0, 0, 0]
    for package, (reached, total, uncalled) in sorted(totals.items()):
        grand = [grand[0] + reached, grand[1] + total, grand[2] + uncalled]
        rows.append(
            f"| `{package}` | {reached} / {total} | "
            f"{100.0 * reached / total:.0f} | {uncalled} |"
        )
    rows.append(
        f"| **all of `src/repro`** | {grand[0]} / {grand[1]} | "
        f"{100.0 * grand[0] / grand[1]:.0f} | {grand[2]} |"
    )
    return "\n".join(rows + ([""] + details if details else []))


def main(argv: list[str]) -> int:
    """Trace the workloads and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--uncalled", action="store_true",
        help="also list every function no run entered, per module",
    )
    args = parser.parse_args(argv)
    counter = LineCounter()
    shards = run_workloads(counter)
    print(render(counter, args.uncalled))
    print(f"\n({shards} forked shard process(es) merged)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
