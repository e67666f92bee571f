"""The reachability ratchet: its allowlist and its two failure modes.

``scripts/reachability.py --check`` traces real runs (figures,
scenarios, the fault-smoke CLI runs, the examples) and fails on a
never-entered function that ``scripts/reachability_allow.txt`` does not
list, or on a stale entry. CI runs the traced check; these tests need
no workload run. They read the list against ``src/repro``'s AST and
drive the check with hand-built counters.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import shlex
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
ALLOWLIST = REPO / "scripts" / "reachability_allow.txt"
KEY = re.compile(r"^[\w/]+\.py: [\w.<>]+$")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reachability", REPO / "scripts" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = load_script()


def entries() -> list[tuple[str, str]]:
    """``(key, reason)`` per non-comment line, in file order."""
    found = []
    for line in ALLOWLIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition(" :: ")
            found.append((key, reason.strip()))
    return found


def defined_functions(path: Path) -> set[str]:
    """Every function's ``__qualname__`` in one module, from its AST."""
    names: set[str] = set()

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return names


class TestAllowlist:
    def test_every_entry_has_a_reason(self):
        assert entries(), "the allowlist is empty"
        bad = [key for key, reason in entries() if not reason]
        assert bad == []

    def test_every_key_is_module_colon_qualname(self):
        bad = [key for key, _ in entries() if not KEY.match(key)]
        assert bad == []

    def test_every_entry_names_a_function_src_still_defines(self):
        missing = []
        for key, _ in entries():
            module, _, qualname = key.partition(": ")
            path = SRC / module
            if not path.is_file() or qualname not in defined_functions(path):
                missing.append(key)
        assert missing == []

    def test_no_entry_is_listed_twice(self):
        keys = [key for key, _ in entries()]
        assert len(keys) == len(set(keys))

    def test_the_script_reads_the_same_entries(self):
        assert reach.read_allowlist(ALLOWLIST) == dict(entries())


def counter_entering_everything():
    """A counter as if every function of ``src/repro`` had been entered."""
    counter = reach.LineCounter()
    for _label, path in reach.modules():
        counter.entered[str(path)].update(
            code.co_firstlineno for code in reach.functions(path)
        )
    return counter


def never_enter(counter, module: str, qualname: str) -> None:
    path = SRC / module
    [code] = [c for c in reach.functions(path) if c.co_qualname == qualname]
    counter.entered[str(path)].discard(code.co_firstlineno)


def allowlist_file(tmp_path, *lines: str) -> Path:
    path = tmp_path / "allow.txt"
    path.write_text("# header\n" + "".join(f"{line}\n" for line in lines))
    return path


class TestCheck:
    def test_an_exact_list_passes(self, tmp_path, capsys):
        counter = counter_entering_everything()
        never_enter(counter, "core/srs.py", "coin_flips")
        allow = allowlist_file(tmp_path, "core/srs.py: coin_flips :: test")
        assert reach.run_check(counter, allow) == 0
        assert "passed: 1 allowlisted" in capsys.readouterr().out

    def test_an_unlisted_never_entered_function_fails(self, tmp_path, capsys):
        counter = counter_entering_everything()
        never_enter(counter, "core/srs.py", "coin_flips")
        assert reach.run_check(counter, allowlist_file(tmp_path)) != 0
        out = capsys.readouterr().out
        assert (
            "never entered and not allowlisted: core/srs.py: coin_flips" in out
        )

    def test_a_stale_entry_that_a_run_enters_fails(self, tmp_path, capsys):
        allow = allowlist_file(tmp_path, "core/srs.py: coin_flips :: test")
        assert reach.run_check(counter_entering_everything(), allow) != 0
        out = capsys.readouterr().out
        assert (
            "stale allowlist entry (a run enters it): core/srs.py: coin_flips"
            in out
        )

    def test_a_stale_entry_that_no_longer_exists_fails(self, tmp_path, capsys):
        allow = allowlist_file(tmp_path, "core/srs.py: gone :: test")
        assert reach.run_check(counter_entering_everything(), allow) != 0
        out = capsys.readouterr().out
        assert (
            "stale allowlist entry (no such function): core/srs.py: gone"
            in out
        )


def ci_fault_smoke_commands() -> list[list[str]]:
    """The ``repro`` argv of each injected-fault CLI run in CI."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    step = ci.split("- name: Injected-fault figure runs", 1)[1]
    step = step.split("- name:", 1)[0].replace("\\\n", " ")
    return [
        shlex.split(line.split("python -m repro", 1)[1])
        for line in step.splitlines()
        if "python -m repro" in line
    ]


def test_the_audit_runs_cis_fault_smoke_commands():
    """The supervision code counts as entered because the audit runs
    the same three injected-fault commands CI's fault-smoke job does."""
    commands = ci_fault_smoke_commands()
    assert len(commands) == 3
    workloads = reach._cli_workloads(["steady"])
    for argv in commands:
        assert argv in workloads


def test_functions_are_the_defs_without_class_bodies_or_comprehensions(
    tmp_path,
):
    module = tmp_path / "mod.py"
    module.write_text(
        "class A:\n"
        "    X = [i for i in range(3)]\n"
        "    def method(self):\n"
        "        return lambda: 1\n"
        "def outer():\n"
        "    def inner():\n"
        "        return {k: k for k in ()}\n"
        "    return inner\n"
    )
    names = {code.co_qualname for code in reach.functions(module)}
    assert names == {"A.method", "outer", "outer.<locals>.inner"}
    assert names == defined_functions(module)

class TestCounter:
    def test_read_allowlist_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text(
            "# comment :: not an entry\n\n"
            "core/srs.py: coin_flips :: a reason :: with a separator\n"
        )
        assert reach.read_allowlist(path) == {
            "core/srs.py: coin_flips": "a reason :: with a separator",
        }

    def test_merge_dumps_folds_in_every_child(self, tmp_path):
        srs = str(SRC / "core" / "srs.py")
        for pid, lines in ((1, [3]), (2, [5, 7])):
            child = reach.LineCounter()
            child.reached[srs].update(lines)
            child.entered[srs].add(lines[0])
            (tmp_path / f"shard-{pid}.json").write_text(json.dumps({
                "reached": {f: sorted(v) for f, v in child.reached.items()},
                "entered": {f: sorted(v) for f, v in child.entered.items()},
            }))
        (tmp_path / "other.json").write_text("not a dump")
        counter = reach.LineCounter()
        assert counter.merge_dumps(str(tmp_path)) == 2
        assert counter.reached[srs] == {3, 5, 7}
        assert counter.entered[srs] == {3, 5}

    def test_the_table_counts_what_the_check_reports(self):
        counter = counter_entering_everything()
        never_enter(counter, "core/srs.py", "coin_flips")
        never_enter(counter, "core/estimator.py", "ThetaStore.merge")
        lines = reach.render(counter, show_uncalled=True).splitlines()
        [total] = [line for line in lines if "**all of `src/repro`**" in line]
        assert total.endswith("| 2 |")
        assert lines[-2].startswith("core/estimator.py: ThetaStore.merge:")
        assert lines[-1].startswith("core/srs.py: coin_flips:")
        assert len(reach.check(counter, {})) == 2
