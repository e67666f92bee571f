#!/usr/bin/env python3
"""Which ``src/repro`` lines do real runs reach? A stdlib line counter.

Runs, in this process and under one ``sys.settrace`` line tracer:

* ``figures --scale quick`` — every evaluation figure;
* every catalog scenario at quick scale, plus one sharded adaptive run
  (``churn --workers 2 --budget-controller variance_aware``);
* the three injected-fault runs of CI's ``fault-smoke`` job (a crashed,
  a raising and a hung shard), so the supervision code counts;
* every ``examples/*.py`` script.

Tests do not count: a line that only a test reaches has no user.
Forked shard processes inherit the tracer and write the lines they
reached to a scratch file when they exit, so shard-side code counts.

A module's *total* is its executable lines — the line table of its
compiled code, so blank lines, comments and docstring bodies do not
count. A line run only at import (``def``, ``class``, constants) counts
as reached, so the table also gives each module's functions that no run
ever entered; ``--uncalled`` lists them by name.

``--check`` makes the audit a ratchet. ``scripts/reachability_allow.txt``
lists every function no run enters, keyed ``module: qualname``, each
with a one-line reason. The check fails on a never-entered function the
list does not name, and on a stale entry: one that a run now enters or
that no longer exists. The list therefore shrinks with the code.

Usage:  PYTHONPATH=src python scripts/reachability.py [--uncalled] [--check]
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
ALLOWLIST = REPO_ROOT / "scripts" / "reachability_allow.txt"


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
        ["figures", "fig5", *quick,
         "--budget-controller", "adaptive_fraction"],
        ["figures", "fig5", *quick, "--workers", "2",
         "--inject-fault", "crash@0:1"],
        ["figures", "fig5", *quick, "--workers", "3",
         "--inject-fault", "raise@1:1"],
        [
            "scenarios", "run", "flash-crowd", *quick, "--windows", "4",
            "--workers", "2", "--shard-timeout", "5",
            "--inject-fault", "hang@0:1",
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


def modules() -> list[tuple[str, Path]]:
    """``(label, path)`` per module, labelled relative to the package."""
    return [
        (path.relative_to(SRC / "repro").as_posix(), path)
        for path in sorted((SRC / "repro").rglob("*.py"))
    ]


def functions(path: Path) -> list[types.CodeType]:
    """The code object of every function one module defines."""
    module = compile(path.read_text(), str(path), "exec")
    return [code for code in _code_objects(module) if _is_function(code)]


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
    for label, path in modules():
        reached, total, uncalled = module_report(counter, path)
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


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``module: qualname`` -> reason, one entry per non-comment line.

    A line reads ``module: qualname :: reason``.
    """
    entries: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition(" :: ")
            entries[key.strip()] = reason.strip()
    return entries


def check(counter: LineCounter, allowed: dict[str, str]) -> list[str]:
    """What the ratchet rejects, one line per unlisted or stale name."""
    uncalled: set[str] = set()
    defined: set[str] = set()
    for label, path in modules():
        entered = counter.entered[str(path)]
        for code in functions(path):
            key = f"{label}: {code.co_qualname}"
            defined.add(key)
            if code.co_firstlineno not in entered:
                uncalled.add(key)
    problems = [
        f"never entered and not allowlisted: {key}"
        for key in sorted(uncalled - allowed.keys())
    ]
    for key in sorted(allowed.keys() - uncalled):
        why = "a run enters it" if key in defined else "no such function"
        problems.append(f"stale allowlist entry ({why}): {key}")
    return problems


def run_check(counter: LineCounter, allowlist: Path = ALLOWLIST) -> int:
    """Print the ratchet's verdict; 0 when the allowlist is exact."""
    allowed = read_allowlist(allowlist)
    problems = check(counter, allowed)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\nreachability check failed: {len(problems)} problem(s)")
        return 1
    print(f"reachability check passed: {len(allowed)} allowlisted function(s)")
    return 0


def main(argv: list[str]) -> int:
    """Trace the workloads, print the table and, with ``--check``, gate."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--uncalled", action="store_true",
        help="also list every function no run entered, per module",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"fail unless {ALLOWLIST.name} lists exactly the functions "
        "no run entered",
    )
    args = parser.parse_args(argv)
    counter = LineCounter()
    shards = run_workloads(counter)
    print(render(counter, args.uncalled))
    print(f"\n({shards} forked shard process(es) merged)")
    return run_check(counter) if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
