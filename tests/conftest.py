"""Fixtures shared across the test suite.

The sharded engine picks its shard transport itself: shared-memory
rings where shards fork and ``/dev/shm`` is usable, the pipe codec
everywhere else. ``pipe_only`` sends every sharded run down the second
route the way a host without usable shared memory does, ``needs_shm``
skips a test on a host that cannot take the first, and ``shard_path``
runs a test once per route. ``columns`` builds the record batches
tests feed the sampling primitives, ``fresh`` a source's raw arrivals
as the weight-1 pair a node receives.
"""

import multiprocessing

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.engine import shm


def _columns(substream, values, emitted_at=0.0):
    return ColumnarBatch.single(substream, values, emitted_at)


@pytest.fixture(scope="session")
def columns():
    """``columns(substream, values, emitted_at=0.0)``: one sub-stream's
    records as a :class:`ColumnarBatch` of float64 values."""
    return _columns


def _fresh(substream, values):
    return WeightedBatch(substream, 1.0, _columns(substream, values))


@pytest.fixture(scope="session")
def fresh():
    """``fresh(substream, values)``: raw arrivals, a pair at weight 1."""
    return _fresh


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
