"""Every figure's quick-scale table, pinned to the character.

``figures_quick.txt`` is the text ``python -m repro figures --scale
quick`` prints. Each figure's run must render exactly its own blocks of
that file, so a refactor of the experiment harness cannot move a
seeded cell unnoticed; a change that means to move one regenerates the
file and says why.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentScale
from repro.experiments.figures import FIGURES, run_figure

GOLDEN = Path(__file__).with_name("figures_quick.txt").read_text()

FIGURE_IDS = [spec.id for spec in FIGURES]


def blocks(text: str) -> list[str]:
    """Rendered tables, in order (blank lines separate them)."""
    return [block.strip("\n") for block in text.split("\n\n") if block.strip()]


def golden_blocks(figure_id: str) -> list[str]:
    """The golden file's tables titled ``Fig. N:`` or ``Fig. N(...)``."""
    number = figure_id.removeprefix("fig")
    title = re.compile(rf"Fig\. {number}[:(]")
    return [block for block in blocks(GOLDEN) if title.match(block)]


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_quick_table_matches_golden(figure_id):
    expected = golden_blocks(figure_id)
    assert expected, f"no golden table for {figure_id}"
    assert blocks(run_figure(figure_id, ExperimentScale.quick())) == expected
