"""What the benchmark reads from the host: CPU time, memory, load.

Linux only (``/proc``); the worker's shard processes are found through
``multiprocessing.active_children()``, which is where the program's
``multiprocessing`` contexts register them.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

import numpy


def pin_to_one_cpu() -> int:
    """Pin this process, and every child it starts, to a single CPU.

    The guest's second vCPU comes and goes (minutes at a time it is
    effectively absent), which made a two-process op read anywhere from
    285 to 730 ms on identical code; on one CPU the same op's lower
    quartile held within 1 % through those phases. So every workload is
    measured on one core: ``sharded-2w`` still runs two real shard
    processes over the real IPC path, they just take turns.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def children_cpu_seconds() -> float:
    """CPU time the live child processes have run for so far.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the run
    queue's CPU, per thread) rather than ``/proc/<pid>/stat``, whose
    10 ms ticks are 3 % of a 0.3 s op.
    """
    nanoseconds = 0
    for child in multiprocessing.active_children():
        for task in Path(f"/proc/{child.pid}/task").iterdir():
            nanoseconds += int((task / "schedstat").read_text().split()[0])
    return nanoseconds / 1e9


def cpu_seconds() -> float:
    """CPU time of this process and its live children."""
    return time.process_time() + children_cpu_seconds()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus each live child's."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024


def probe_ms() -> float:
    """A fixed Python + numpy kernel that owes nothing to the repo.

    Timed once per round: when it reads slow, the host — not the code
    under test — was slow during that round.
    """
    rng = numpy.random.default_rng(0)
    data = rng.random(400_000)
    start = time.perf_counter()
    total = 0
    for index in range(150_000):
        total += index & 7
    numpy.sort(data)
    float(data.cumsum()[-1]) + total
    return 1e3 * (time.perf_counter() - start)


def environment(root: Path) -> dict:
    """The host and checkout a result was measured on."""
    commit = "unknown"
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=False,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }
