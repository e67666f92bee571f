"""The user-facing snippets run: every example script, README's
Quickstart block and the package docstring's quickstart.

Each example runs in a fresh interpreter with ``src`` on the path, the
way README tells users to run it, and its stdout must equal the golden
``tests/examples/<name>.txt`` byte for byte: every example is seeded,
so a refactor that moves an example's output has changed its draws.
Regenerate a golden only when a change means to move it.
"""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
GOLDENS = Path(__file__).resolve().parent / "examples"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    golden = (GOLDENS / f"{script.stem}.txt").read_text()
    assert completed.stdout == golden


def test_examples_exist():
    assert len(EXAMPLES) >= 7, [path.name for path in EXAMPLES]


def test_every_golden_has_its_example():
    assert sorted(path.stem for path in GOLDENS.glob("*.txt")) == [
        path.stem for path in EXAMPLES
    ]


def test_readme_quickstart_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quickstart\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md#quickstart", "exec"), {})
    assert "9120.0" in capsys.readouterr().out


def test_package_docstring_quickstart_runs(capsys):
    snippet = repro.__doc__.split("Quickstart::\n", 1)[1].split("\nSee ", 1)[0]
    exec(compile(textwrap.dedent(snippet), "repro.__doc__", "exec"), {})
    assert "±" in capsys.readouterr().out


def test_pollution_adaptive_demo_pins_its_fractions(capsys):
    """The in-run §IV-B loop grows 2 % by x1.5 per window to 34.2 %."""
    example = runpy.run_path(str(ROOT / "examples" / "pollution_monitoring.py"))
    fractions = example["adaptive_demo"](example["SCALE"])
    expected = [0.02]
    for _ in range(7):
        expected.append(expected[-1] * 1.5)
    assert fractions == expected
    out = capsys.readouterr().out
    used = [line.split()[1] for line in out.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert used == ["2.0%", "3.0%", "4.5%", "6.8%",
                    "10.1%", "15.2%", "22.8%", "34.2%"]
    assert "final fraction: 34.2%" in out


def test_pollution_grouped_totals_are_the_reported_window(capsys):
    """The per-pollutant table reads the root Theta of the window whose
    loss it prints: its totals add up to that window's SUM estimate."""
    from repro.experiments.base import pollution_workload
    from repro.system import PipelineConfig, StatisticalRunner

    example = runpy.run_path(str(ROOT / "examples" / "pollution_monitoring.py"))
    scale = example["SCALE"]
    example["grouped_query_demo"](scale)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    totals = [
        float(row[1].replace(",", ""))
        for row in rows if row and row[0] in ("co", "no2", "pm", "so2")
    ]
    schedule, generators = pollution_workload(scale)
    config = PipelineConfig(sampling_fraction=0.2, seed=scale.config.seed)
    window = StatisticalRunner(config, schedule, generators).run_window()
    assert len(totals) == 4
    assert sum(totals) == pytest.approx(window.approx_sum.value, abs=2.0)
