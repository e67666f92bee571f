"""Unit tests for the columnar (SoA) batch and the weighted pair over it."""

import random

import pytest

from repro.core.columns import (
    ColumnarBatch,
    concat_value_chunks,
    masked_sum,
    value_column,
)
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import WeightedBatch
from repro.errors import SamplingError


def mixed():
    """Four records over two strata, with per-record times and sizes."""
    return ColumnarBatch(
        ["A", "A", "B", "A"],
        value_column([1.0, 2.0, 3.0, 4.0]),
        value_column([0.1, 0.2, 0.3, 0.4]),
        [100, 100, 64, 100],
    )


def rows(batch):
    """``(substream, value, emitted_at, size)`` per record."""
    return list(zip(
        batch.substream_ids(), batch.values.tolist(),
        batch.timestamp_column().tolist(), batch.size_list(),
    ))


class TestConstruction:
    def test_columns_roundtrip(self):
        assert rows(mixed()) == [
            ("A", 1.0, 0.1, 100), ("A", 2.0, 0.2, 100),
            ("B", 3.0, 0.3, 64), ("A", 4.0, 0.4, 100),
        ]
        assert len(mixed()) == 4

    def test_uniform_substream_detected(self):
        assert ColumnarBatch.single("A", [1.0, 2.0]).uniform_substream == "A"
        assert mixed().uniform_substream is None
        assert mixed().substream_ids() == ["A", "A", "B", "A"]

    def test_single(self):
        batch = ColumnarBatch.single("X", [1.0, 2.0, 3.0], 5.0, 42)
        assert batch.uniform_substream == "X"
        assert batch.timestamps == 5.0 and isinstance(batch.timestamps, float)
        assert list(batch.timestamp_column()) == [5.0, 5.0, 5.0]
        assert batch.total_bytes == 3 * 42

    def test_empty(self):
        batch = ColumnarBatch.empty()
        assert len(batch) == 0
        assert not batch
        assert batch.group_by_substream() == {}

    def test_length_mismatch_rejected(self):
        with pytest.raises(SamplingError):
            ColumnarBatch("A", value_column([1.0]), value_column([1.0, 2.0]))
        with pytest.raises(SamplingError):
            ColumnarBatch(
                ["A"], value_column([1.0, 2.0]), value_column([1.0, 2.0])
            )
        with pytest.raises(SamplingError):
            ColumnarBatch(
                "A", value_column([1.0, 2.0]), value_column([1.0, 2.0]),
                sizes=[10],
            )


class TestAggregation:
    def test_value_sum(self):
        assert mixed().value_sum() == pytest.approx(10.0)

    def test_total_bytes_uniform_and_mixed(self):
        uniform = ColumnarBatch.single("A", [1.0, 2.0], size_bytes=100)
        assert uniform.total_bytes == 200
        assert mixed().total_bytes == 100 + 100 + 64 + 100

    def test_masked_sum(self):
        column = value_column([1.0, 2.0, 3.0, 4.0])
        assert masked_sum(column, [True, False, True, False]) == 4.0

    def test_concat_value_chunks(self):
        chunk = [1.0, 2.0]
        assert concat_value_chunks([chunk]) is chunk
        merged = concat_value_chunks([value_column([1.0]), value_column([2.0])])
        assert list(merged) == [1.0, 2.0]


class TestTransformation:
    def test_select_preserves_index_order(self):
        picked = mixed().select([2, 0])
        assert rows(picked) == [("B", 3.0, 0.3, 64), ("A", 1.0, 0.1, 100)]

    def test_compress(self):
        batch = mixed()
        kept = batch.compress([False, True, True, False])
        assert kept.values.tolist() == [2.0, 3.0]
        with pytest.raises(SamplingError):
            batch.compress([True])

    def test_concat(self):
        a = ColumnarBatch.single("A", [1.0, 2.0])
        b = ColumnarBatch.single("A", [3.0])
        merged = ColumnarBatch.concat([a, b])
        assert merged.uniform_substream == "A"
        assert list(merged.values) == [1.0, 2.0, 3.0]
        strata = ColumnarBatch.concat([a, ColumnarBatch.single("B", [9.0])])
        assert strata.uniform_substream is None
        assert strata.substream_ids() == ["A", "A", "B"]

    def test_spread_is_the_closed_form_bitwise(self):
        n, start, seconds = 7, 5.0, 2.0
        batch = ColumnarBatch.single("A", [0.0] * n, start)
        batch = batch.with_timestamps_from(start, batch.spread_offsets(seconds))
        expected = [start + seconds * (i + 1) / (n + 1) for i in range(n)]
        assert list(batch.timestamps) == expected

    def test_group_by_substream_keeps_first_occurrence_order(self):
        groups = mixed().group_by_substream()
        assert list(groups) == ["A", "B"]
        assert groups["A"].uniform_substream == "A"
        assert rows(groups["A"]) == [
            row for row in rows(mixed()) if row[0] == "A"
        ]
        assert rows(groups["B"]) == [("B", 3.0, 0.3, 64)]

    def test_group_by_uniform_is_zero_copy(self):
        batch = ColumnarBatch.single("A", [1.0, 2.0])
        assert batch.group_by_substream()["A"] is batch


class TestWeightedBatch:
    @pytest.mark.parametrize(
        "columns",
        [ColumnarBatch.empty(), ColumnarBatch.single("A", [2.0] * 4, 0.5, 10),
         mixed()],
        ids=["empty", "uniform", "mixed"],
    )
    def test_aggregates_read_the_columns(self, columns):
        batch = WeightedBatch("A", 3.0, columns)
        assert batch.items is columns
        assert len(batch) == len(columns)
        assert batch.estimated_count == 3.0 * len(columns)
        assert batch.estimated_sum == pytest.approx(3.0 * columns.value_sum())
        assert batch.total_bytes == sum(columns.size_list())

    @pytest.mark.parametrize("items", [[1.0, 2.0], (), None])
    def test_a_payload_that_is_not_columns_is_rejected(self, items):
        with pytest.raises(TypeError, match="ColumnarBatch"):
            WeightedBatch("A", 1.0, items)


class TestReservoirIndexKernel:
    def test_validation(self):
        gen = make_generator(random.Random(0))
        with pytest.raises(SamplingError):
            batch_sample_indices(10, 0, gen)
        with pytest.raises(SamplingError):
            batch_sample_indices(-1, 5, gen)
