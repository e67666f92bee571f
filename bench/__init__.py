"""The repository's performance benchmark; see ``bench/README.md``."""

from pathlib import Path

#: The checkout the benchmark lives in and measures.
ROOT = Path(__file__).resolve().parent.parent
