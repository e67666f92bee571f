"""Fixtures shared across the test suite.

The sharded engine picks its shard transport itself: shared-memory
rings where shards fork and ``/dev/shm`` is usable, the pipe codec
everywhere else. ``pipe_only`` sends every sharded run down the second
route the way a host without usable shared memory does, ``needs_shm``
skips a test on a host that cannot take the first, and ``shard_path``
runs a test once per route.
"""

import multiprocessing

import pytest

from repro.engine import shm


@pytest.fixture
def pipe_only(monkeypatch):
    """Every sharded run from here on resolves to the pipe codec."""
    monkeypatch.setattr(shm, "shm_available", lambda: False)


@pytest.fixture
def needs_shm():
    """Skip unless sharded runs here take the shared-memory route."""
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not shm.shm_available()
    ):
        pytest.skip("host lacks fork or usable shared memory")


@pytest.fixture(params=["pipe", "shm"])
def shard_path(request):
    """The route under test: ``"pipe"`` or ``"shm"``."""
    request.getfixturevalue(
        "pipe_only" if request.param == "pipe" else "needs_shm"
    )
    return request.param
