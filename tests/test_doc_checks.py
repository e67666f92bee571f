"""The documentation checks CI runs, run in tier-1 too.

``scripts/check_docstrings.py`` (every public definition of
``src/repro`` has a docstring) and ``scripts/check_docs_links.py``
(every relative link and anchor in README.md and docs/ resolves) are
stdlib scripts. Each runs here as CI runs it, in a subprocess, and
once on a hand-made failure so a check that passes everything cannot
go unnoticed.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )


class TestDocstrings:
    def test_src_repro_passes(self):
        result = run("check_docstrings.py")
        assert result.returncode == 0, result.stdout
        assert "all public docstrings present" in result.stdout

    def test_a_public_function_without_a_docstring_fails(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            '"""A module."""\n\n'
            "def documented():\n"
            '    """Has one."""\n\n'
            "def bare():\n"
            "    return 1\n\n"
            "def _private():\n"
            "    return 2\n"
        )
        result = run("check_docstrings.py", str(module))
        assert result.returncode == 1
        assert "function bare has no docstring" in result.stdout
        assert "_private" not in result.stdout
        assert "documented" not in result.stdout


class TestDocsLinks:
    def test_readme_and_docs_pass(self):
        result = run("check_docs_links.py")
        assert result.returncode == 0, result.stdout
        assert "all documentation links OK" in result.stdout

    def test_a_broken_link_and_anchor_fail(self, tmp_path):
        (tmp_path / "other.md").write_text("# Present heading\n")
        page = tmp_path / "page.md"
        page.write_text(
            "# Title\n\n"
            "[fine](other.md#present-heading) [here](#title)\n"
            "[gone](missing.md) [bad anchor](other.md#absent)\n"
        )
        result = run("check_docs_links.py", str(page))
        assert result.returncode == 1
        assert "broken link missing.md" in result.stdout
        assert "broken anchor other.md#absent" in result.stdout
        assert "2 broken link(s)" in result.stdout


class TestDocstringExemptions:
    def test_dunders_setters_and_private_subtrees_are_exempt(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            '"""A module."""\n\n'
            "class Public:\n"
            '    """Documented."""\n\n'
            "    def __init__(self):\n"
            "        self._x = 0\n\n"
            "    @property\n"
            "    def x(self):\n"
            '        """The x."""\n'
            "        return self._x\n\n"
            "    @x.setter\n"
            "    def x(self, value):\n"
            "        self._x = value\n\n"
            "class _Private:\n"
            "    def method(self):\n"
            "        return 1\n"
        )
        result = run("check_docstrings.py", str(module))
        assert result.returncode == 0, result.stdout

    def test_a_module_without_a_docstring_fails(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("X = 1\n")
        result = run("check_docstrings.py", str(module))
        assert result.returncode == 1
        assert "module has no docstring" in result.stdout


class TestDocsLinkScope:
    def test_external_and_fenced_links_are_not_checked(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "# Title\n\n"
            "[site](https://example.invalid/x) [mail](mailto:a@b.invalid)\n\n"
            "```\n[inside a fence](missing.md)\n```\n"
        )
        result = run("check_docs_links.py", str(page))
        assert result.returncode == 0, result.stdout
        assert "2 external links skipped" in result.stdout
