"""Deleted names stay deleted.

``scripts/deleted_names.txt`` lists, per simplification that removed a
knob, module or dependency, the paths to search and an extended regex
of the removed names. Each entry fails here when its pattern matches a
line of a file under its paths, as ``grep -rnE PATTERN PATHS`` would.
Bytecode caches are generated, not source, and are not searched. CI's
docs job runs this file alone.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LIST = REPO / "scripts" / "deleted_names.txt"


def entries() -> list[tuple[str, list[str], str]]:
    """``(label, paths, pattern)`` per line of the list."""
    found = []
    for line in LIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            label, paths, pattern = line.split(" :: ", 2)
            found.append((label, paths.split(), pattern))
    return found


def files_under(path: Path):
    if path.is_file():
        yield path
        return
    for child in sorted(path.rglob("*")):
        if child.is_file() and "__pycache__" not in child.parts:
            yield child


def matches(pattern: str, paths: list[str]) -> list[str]:
    """``file:line: text`` for every matching line, like ``grep -rn``."""
    regex = re.compile(pattern.encode())
    hits = []
    for name in paths:
        root = REPO / name
        assert root.exists(), f"{name} is listed but does not exist"
        for path in files_under(root):
            for number, line in enumerate(path.read_bytes().splitlines(), 1):
                if regex.search(line):
                    text = line.decode(errors="replace").strip()
                    hits.append(f"{path.relative_to(REPO)}:{number}: {text}")
    return hits


ENTRIES = [
    pytest.param(paths, pattern, id=label.split(" (")[0])
    for label, paths, pattern in entries()
]


@pytest.mark.parametrize("paths, pattern", ENTRIES)
def test_deleted_names_stay_deleted(paths, pattern):
    assert matches(pattern, paths) == []


def test_the_list_keeps_every_guard():
    """An entry is retired only with the names it guards."""
    assert len(ENTRIES) >= 6
