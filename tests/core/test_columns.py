"""Unit tests for the columnar (SoA) batch and its StreamItem edge."""

import random

import pytest

from repro.core.columns import (
    ColumnarBatch,
    concat_value_chunks,
    masked_sum,
    value_column,
)
from repro.core.fastpath import batch_sample_indices, make_generator
from repro.core.items import StreamItem, WeightedBatch
from repro.errors import SamplingError


def items_fixture():
    return [
        StreamItem("A", 1.0, 0.1, 100),
        StreamItem("A", 2.0, 0.2, 100),
        StreamItem("B", 3.0, 0.3, 64),
        StreamItem("A", 4.0, 0.4, 100),
    ]


class TestConstruction:
    def test_from_items_roundtrip(self):
        items = items_fixture()
        batch = ColumnarBatch.from_items(items)
        assert len(batch) == 4
        assert batch.to_items() == items

    def test_uniform_substream_detected(self):
        batch = ColumnarBatch.from_items(
            [StreamItem("A", 1.0), StreamItem("A", 2.0)]
        )
        assert batch.uniform_substream == "A"
        mixed = ColumnarBatch.from_items(items_fixture())
        assert mixed.uniform_substream is None
        assert mixed.substream_ids() == ["A", "A", "B", "A"]

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
        assert batch.to_items() == []
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
        batch = ColumnarBatch.from_items(items_fixture())
        assert batch.value_sum() == pytest.approx(10.0)

    def test_total_bytes_uniform_and_mixed(self):
        uniform = ColumnarBatch.single("A", [1.0, 2.0], size_bytes=100)
        assert uniform.total_bytes == 200
        mixed = ColumnarBatch.from_items(items_fixture())
        assert mixed.total_bytes == 100 + 100 + 64 + 100

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
        batch = ColumnarBatch.from_items(items_fixture())
        picked = batch.select([2, 0])
        assert picked.to_items() == [
            StreamItem("B", 3.0, 0.3, 64),
            StreamItem("A", 1.0, 0.1, 100),
        ]

    def test_compress(self):
        batch = ColumnarBatch.from_items(items_fixture())
        kept = batch.compress([False, True, True, False])
        assert [item.value for item in kept] == [2.0, 3.0]
        with pytest.raises(SamplingError):
            batch.compress([True])

    def test_concat(self):
        a = ColumnarBatch.single("A", [1.0, 2.0])
        b = ColumnarBatch.single("A", [3.0])
        merged = ColumnarBatch.concat([a, b])
        assert merged.uniform_substream == "A"
        assert list(merged.values) == [1.0, 2.0, 3.0]
        mixed = ColumnarBatch.concat([a, ColumnarBatch.single("B", [9.0])])
        assert mixed.uniform_substream is None
        assert mixed.substream_ids() == ["A", "A", "B"]

    def test_spread_is_the_closed_form_bitwise(self):
        n, start, seconds = 7, 5.0, 2.0
        batch = ColumnarBatch.single("A", [0.0] * n, start)
        batch = batch.with_timestamps_from(start, batch.spread_offsets(seconds))
        expected = [start + seconds * (i + 1) / (n + 1) for i in range(n)]
        assert list(batch.timestamps) == expected

    def test_group_by_substream_matches_object_grouping(self):
        items = items_fixture()
        columnar = ColumnarBatch.from_items(items).group_by_substream()
        objects = {}
        for item in items:
            objects.setdefault(item.substream, []).append(item)
        assert list(columnar) == list(objects)  # first-occurrence order
        for key in objects:
            assert columnar[key].to_items() == objects[key]

    def test_group_by_uniform_is_zero_copy(self):
        batch = ColumnarBatch.single("A", [1.0, 2.0])
        assert batch.group_by_substream()["A"] is batch


class TestStreamItemEdge:
    """Lists of ``StreamItem`` enter and leave at the API edge only."""

    def test_from_items_is_the_identity_on_a_columnar_batch(self):
        batch = ColumnarBatch.from_items(items_fixture())
        assert ColumnarBatch.from_items(batch) is batch

    @pytest.mark.parametrize(
        "items",
        [
            [],
            [StreamItem("A", 2.0, 0.5, 10) for _ in range(4)],
            items_fixture(),  # mixed strata, mixed sizes
        ],
        ids=["empty", "uniform", "mixed"],
    )
    def test_weighted_batch_normalises_a_list_and_iterates_it_back(self, items):
        batch = WeightedBatch("A", 3.0, items)
        assert isinstance(batch.items, ColumnarBatch)
        assert list(batch) == batch.items.to_items() == items
        assert len(batch) == len(items)
        assert batch.estimated_count == 3.0 * len(items)
        assert batch.estimated_sum == pytest.approx(
            3.0 * sum(item.value for item in items)
        )
        assert batch.total_bytes == sum(item.size_bytes for item in items)

    def test_weighted_batch_keeps_a_columnar_payload_as_is(self):
        columns = ColumnarBatch.from_items(items_fixture())
        assert WeightedBatch("A", 1.0, columns).items is columns
        assert isinstance(WeightedBatch("A", 1.0).items, ColumnarBatch)


class TestReservoirIndexKernel:
    def test_validation(self):
        gen = make_generator(random.Random(0))
        with pytest.raises(SamplingError):
            batch_sample_indices(10, 0, gen)
        with pytest.raises(SamplingError):
            batch_sample_indices(-1, 5, gen)
