"""The package layering in ``docs/ARCHITECTURE.md`` is the import graph.

Every ``import repro.X`` / ``from repro.X import ...`` under
``src/repro/`` — at module level, inside a function, or under
``TYPE_CHECKING`` — is one edge from the importing package to the
imported one. ``ALLOWED`` is the diagram as data: an edge it does not
list (``core -> engine``, say) fails the test, and so does an entry that
no import uses any more, so the table and the diagram shrink with the
code.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: importer -> what it may import. A bare name allows the whole
#: package; ``package.module`` allows only that module. Top-level
#: modules are nodes of their own (``repro`` is the package
#: ``__init__``); ``errors`` is the leaf every layer may use.
ALLOWED: dict[str, set[str]] = {
    "errors": set(),
    "core": {"errors"},
    "simnet": {"errors"},
    "metrics": {"errors"},
    "topology": {"errors", "simnet"},
    "workloads": {"core", "errors"},
    "broker": {"core", "errors"},
    "queries": {"core", "errors"},
    "scenarios": {"errors", "topology", "workloads"},
    # The one back-edge: the engine reads PipelineConfig (type-only) and
    # the shard timeout cap, and builds the budget controller, from two
    # system modules that themselves import only core and topology.
    "engine": {
        "broker.records", "core", "errors", "scenarios", "topology",
        "workloads", "system.config", "system.adaptive",
    },
    "system": {
        "core", "engine", "errors", "metrics", "scenarios", "simnet",
        "topology", "workloads",
    },
    "experiments": {
        "errors", "metrics", "simnet", "system", "topology", "workloads",
    },
    "cli": {
        "engine", "errors", "experiments", "repro", "scenarios", "system",
    },
    "repro": {"core"},
    "__main__": {"cli"},
}


def _node(path: Path) -> str:
    parts = path.relative_to(SRC).parts
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else path.stem


def _imported(tree: ast.AST) -> list[str]:
    """Dotted names below ``repro`` that a module imports."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "src/repro uses absolute imports only"
            names.append(node.module or "")
    return [
        name[len("repro."):] if name.startswith("repro.") else "repro"
        for name in names
        if name == "repro" or name.startswith("repro.")
    ]


def import_edges() -> dict[tuple[str, str], list[str]]:
    """``(importer, imported module)`` -> the files that make the edge."""
    edges: dict[tuple[str, str], list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        source = _node(path)
        for target in _imported(ast.parse(path.read_text(), str(path))):
            if target.split(".")[0] != source:
                rel = str(path.relative_to(SRC.parent))
                edges.setdefault((source, target), []).append(rel)
    return edges


def _allowed_by(source: str, target: str) -> str | None:
    """The ``ALLOWED`` entry that admits ``source -> target``, if any."""
    parts = target.split(".")
    for entry in (parts[0], ".".join(parts[:2])):
        if entry in ALLOWED.get(source, ()):
            return entry
    return None


def test_every_cross_package_import_is_in_the_diagram():
    stray = {
        f"{source} -> {target}": files
        for (source, target), files in import_edges().items()
        if _allowed_by(source, target) is None
    }
    assert not stray, stray


def test_every_diagram_edge_is_still_imported():
    used = {
        (source, _allowed_by(source, target))
        for source, target in import_edges()
    }
    stale = sorted(
        f"{source} -> {entry}"
        for source, entries in ALLOWED.items()
        for entry in entries
        if (source, entry) not in used
    )
    assert not stale, stale


def test_every_package_is_a_node():
    nodes = {_node(path) for path in SRC.rglob("*.py")}
    assert nodes == set(ALLOWED)


def test_a_forbidden_edge_is_caught():
    tree = ast.parse("from repro.engine.runner import EngineRunner\n")
    (target,) = _imported(tree)
    assert _allowed_by("core", target) is None
    assert _allowed_by("system", target) == "engine"
