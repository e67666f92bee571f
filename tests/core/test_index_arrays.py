"""Survivor index sets stay arrays end to end.

``batch_sample_indices`` draws one sorted ``intp`` array per group and
``ColumnarBatch.select`` indexes its columns with it; nothing turns it
into a list. The gates here count calls and check types — never clocks.
"""

import random
import sys

import numpy
import pytest

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches



def columnar_batches(count=5000):
    return [
        WeightedBatch(name, 1.0, ColumnarBatch.single(name, range(count), 0.5))
        for name in "ABCD"
    ]


def count_tolist_calls(function) -> int:
    """Run ``function`` and count the C-level ``tolist`` calls it makes.

    ``ndarray`` is immutable, so its method cannot be patched; the
    profile hook sees every builtin call by name instead.
    """
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "c_call" and getattr(arg, "__name__", "") == "tolist":
            calls += 1

    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


class TestOneReturnType:
    @pytest.mark.parametrize("population", [0, 3, 10, 11, 5000])
    def test_always_a_sorted_intp_array(self, population):
        indices = batch_sample_indices(
            population, 10, make_generator(random.Random(1))
        )
        assert isinstance(indices, numpy.ndarray)
        assert indices.dtype == numpy.intp
        assert len(indices) == min(population, 10)
        assert (numpy.diff(indices) > 0).all()
        if population <= 10:
            assert indices.tolist() == list(range(population))


class TestSelectTakesTheArrayAsIs:
    def test_array_and_list_gather_the_same_records(self):
        batch = ColumnarBatch(
            ["A", "B", "A", "C", "B"],
            numpy.arange(5.0),
            numpy.arange(5.0) / 10,
            [100, 200, 300, 400, 500],
        )
        picks = [0, 2, 3]
        by_array = batch.select(numpy.asarray(picks, dtype=numpy.intp))
        for picked in (by_array, batch.select(picks)):
            assert picked.substream_ids() == ["A", "A", "C"]
            assert picked.values.tolist() == [0.0, 2.0, 3.0]
            assert picked.timestamp_column().tolist() == [
                batch.timestamps[i] for i in picks
            ]
            assert picked.size_list() == [100, 300, 400]

    def test_whsamp_hands_select_the_kernel_array(self, monkeypatch):
        seen = []
        original = ColumnarBatch.select

        def recording_select(self, indices):
            seen.append(indices)
            return original(self, indices)

        monkeypatch.setattr(ColumnarBatch, "select", recording_select)
        whsamp_batches(columnar_batches(), 400, rng=random.Random(3))
        assert len(seen) == 4
        assert all(
            isinstance(indices, numpy.ndarray) and indices.dtype == numpy.intp
            for indices in seen
        )


class TestNoListRoundTrip:
    def test_columnar_whsamp_never_calls_tolist(self):
        batches = columnar_batches()
        calls = count_tolist_calls(
            lambda: whsamp_batches(batches, 400, rng=random.Random(3))
        )
        assert calls == 0

    def test_the_counter_sees_a_tolist_call(self):
        """Positive control: the zero above is not a blind hook."""
        assert count_tolist_calls(lambda: numpy.arange(3).tolist()) == 1
