"""Roundtrip parity for the compact binary weighted-batch codec.

The codec must be a faithful bijection: values, emission times (one
per batch, or one per record), sizes and weights survive bit-for-bit
(float64 end to end), and byte accounting (``total_bytes``) is
unchanged — the properties the sharded engine and the serde-backed
broker transport rely on. A frame that is cut short or
carries an unknown format tag is rejected, never decoded to fewer
records than its header declares.
"""

import struct

import pytest

from repro.broker.records import (
    COLUMNAR_SERDE,
    decode_weighted_batch,
    decode_weighted_batches,
    encode_weighted_batch,
    encode_weighted_batch_chunks,
    encode_weighted_batches,
    encode_weighted_batches_chunks,
)
from repro.core.columns import ColumnarBatch, value_column
from repro.core.items import StreamItem, WeightedBatch
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import BrokerTransport
from repro.errors import ConfigurationError
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams


def roundtrip(batch):
    return decode_weighted_batch(encode_weighted_batch(batch))


class TestColumnarRoundtrip:
    def test_uniform_batch_roundtrips_bitwise(self):
        payload = ColumnarBatch.single(
            "A", [1.5, -2.25, 1e300, 0.1 + 0.2], 7.125, 64
        )
        decoded = roundtrip(WeightedBatch("A", 2.5, payload))
        assert isinstance(decoded.items, ColumnarBatch)
        assert decoded.substream == "A"
        assert decoded.weight == 2.5
        assert list(decoded.items.values) == list(payload.values)
        assert decoded.items.timestamps == payload.timestamps == 7.125
        assert isinstance(decoded.items.timestamps, float)
        assert decoded.items.uniform_substream == "A"
        assert decoded.items.sizes == 64

    def test_mixed_strata_and_per_record_sizes(self):
        payload = ColumnarBatch(
            ["A", "B", "A"], value_column([1.0, 2.0, 3.0]),
            value_column([0.1, 0.2, 0.3]), [10, 20, 30],
        )
        decoded = roundtrip(WeightedBatch("A", 1.0, payload))
        assert list(decoded.items.timestamps) == [0.1, 0.2, 0.3]
        assert decoded.items.substream_ids() == ["A", "B", "A"]
        assert decoded.items.size_list() == [10, 20, 30]
        assert decoded.total_bytes == 60

    def test_list_built_batch_roundtrips_to_equal_items(self):
        items = [
            StreamItem("B", 4.5, 1.0, 10),
            StreamItem("B", 5.5, 2.0, 20),
        ]
        decoded = roundtrip(WeightedBatch("B", 3.0, items))
        assert isinstance(decoded.items, ColumnarBatch)
        assert decoded.items.to_items() == items

    def test_empty_payload_roundtrips(self):
        decoded = roundtrip(WeightedBatch("A", 1.0, ColumnarBatch.empty()))
        assert len(decoded.items) == 0

    def test_accounting_is_codec_invariant(self):
        payload = ColumnarBatch.single("C", [10.0, 20.0, 30.0], 1.0, 100)
        original = WeightedBatch("C", 4.0, payload)
        decoded = roundtrip(original)
        assert decoded.total_bytes == original.total_bytes
        assert decoded.estimated_sum == original.estimated_sum
        assert decoded.estimated_count == original.estimated_count

    def test_batch_sequence_framing(self):
        batches = [
            WeightedBatch("A", 1.0, ColumnarBatch.single("A", [1.0], 0.0)),
            WeightedBatch("B", 2.0, [StreamItem("B", 7.0)]),
            WeightedBatch("C", 3.0, []),
        ]
        decoded = decode_weighted_batches(encode_weighted_batches(batches))
        assert [b.substream for b in decoded] == ["A", "B", "C"]
        assert [b.weight for b in decoded] == [1.0, 2.0, 3.0]
        assert decode_weighted_batches(encode_weighted_batches([])) == []

    def test_bad_magic_is_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_weighted_batch(b"not-a-batch")


class TestWireBytes:
    """The frame layout, byte for byte, and how the chunks carry it."""

    VALUES = [1.5, -2.25, 1e300]
    HEADER = (
        b"RWB1" + b"\x02"                          # magic, format tag
        + b"\x01\x00\x00\x00A"                     # batch sub-stream
        + struct.pack("<dQ", 2.5, 3)               # weight, n
        + b"\x00" + b"\x01\x00\x00\x00A"           # uniform tag
        + b"\x00" + struct.pack("<q", 64)          # uniform size
    )
    #: stamp form -> (emission times, their wire bytes)
    STAMPS = {
        "uniform": (7.125, b"\x00" + struct.pack("<d", 7.125)),
        "per-record": (
            [7.0, 7.25, 7.5], b"\x01" + struct.pack("<3d", 7.0, 7.25, 7.5)
        ),
    }

    def batch(self, form="uniform"):
        stamps, _wire = self.STAMPS[form]
        if isinstance(stamps, list):
            stamps = value_column(stamps)
        payload = ColumnarBatch("A", value_column(self.VALUES), stamps, 64)
        return WeightedBatch("A", 2.5, payload)

    def wire(self, form="uniform"):
        return (
            self.HEADER + self.STAMPS[form][1]
            + struct.pack("<3d", *self.VALUES)     # values
        )

    def test_frame_bytes_are_pinned(self):
        for form in self.STAMPS:
            batch, wire = self.batch(form), self.wire(form)
            assert encode_weighted_batch(batch) == wire
            assert b"".join(encode_weighted_batch_chunks(batch)) == wire
            assert encode_weighted_batches([batch, batch]) == (
                struct.pack("<I", 2) + wire + wire
            )
        # One emission time costs 9 bytes, whatever the record count.
        assert len(self.wire("uniform")) == len(self.HEADER) + 9 + 24

    def test_float_columns_travel_as_views_of_their_own_buffers(self):
        uniform = self.batch("uniform")
        *_framing, tag, stamp, values = encode_weighted_batch_chunks(uniform)
        assert tag + stamp == self.STAMPS["uniform"][1]
        columns = [(values, uniform.items.values)]
        per_record = self.batch("per-record")
        *_framing, tag, stamps, values = encode_weighted_batch_chunks(
            per_record
        )
        assert tag == b"\x01"
        columns += [
            (stamps, per_record.items.timestamps),
            (values, per_record.items.values),
        ]
        for chunk, column in columns:
            assert isinstance(chunk, memoryview)
            assert chunk.obj is column  # no tobytes() copy in between
            assert (chunk.format, chunk.nbytes, len(chunk)) == ("B", 24, 24)

    def test_empty_columns_encode_as_empty_chunks(self):
        empty = WeightedBatch("A", 1.0, ColumnarBatch.empty())
        *_framing, stamps, values = encode_weighted_batch_chunks(empty)
        assert (bytes(stamps), bytes(values)) == (b"", b"")

    def test_ring_write_of_the_chunks_lands_the_same_bytes(self):
        from repro.engine import shm

        if not shm.shm_available():
            pytest.skip("shared memory unavailable on this host")
        batch = self.batch()
        chunks = encode_weighted_batches_chunks([batch])
        total = sum(len(chunk) for chunk in chunks)
        segment = shm.ShardSegment.create(ring_bytes=4096)
        try:
            segment.begin_round(1)
            view = segment.read_frame(segment.write_frame(chunks, total))
            landed = bytes(view)
            view.release()
        finally:
            segment.release()
        assert landed == encode_weighted_batches([batch])


class TestMalformedFrames:
    """Outside bytes: a bad frame raises, it never shrinks a batch.

    The frame carries both stamp forms: per-record emission times
    (batch 0) and one emission time per batch (batches 1 and 2).
    """

    BATCHES = [
        WeightedBatch(
            "A", 2.0,
            ColumnarBatch(
                ["A", "B", "A"], value_column([1.0, 2.0, 3.0]),
                value_column([0.1, 0.2, 0.3]), [10, 20, 30],
            ),
        ),
        WeightedBatch("C", 1.5, ColumnarBatch.single("C", [4.0, 5.0], 1.0, 64)),
        WeightedBatch(
            "D", 3.0,
            ColumnarBatch(["D", "E"], value_column([6.0, 7.0]), 2.0, [8, 9]),
        ),
    ]
    FRAME = encode_weighted_batches(BATCHES)
    SINGLE = encode_weighted_batch(BATCHES[0])
    SINGLE_UNIFORM = encode_weighted_batch(BATCHES[2])

    def test_the_whole_frame_decodes(self):
        decoded = decode_weighted_batches(self.FRAME)
        assert [len(batch) for batch in decoded] == [3, 2, 2]

    @pytest.mark.parametrize("cut", range(len(FRAME)))
    def test_a_frame_cut_anywhere_is_rejected(self, cut):
        with pytest.raises(ConfigurationError):
            decode_weighted_batches(self.FRAME[:cut])

    @pytest.mark.parametrize("cut", range(len(SINGLE)))
    def test_a_batch_cut_anywhere_is_rejected(self, cut):
        with pytest.raises(ConfigurationError):
            decode_weighted_batch(self.SINGLE[:cut])

    @pytest.mark.parametrize("cut", range(len(SINGLE_UNIFORM)))
    def test_a_uniform_stamp_batch_cut_anywhere_is_rejected(self, cut):
        with pytest.raises(ConfigurationError):
            decode_weighted_batch(self.SINGLE_UNIFORM[:cut])

    def test_a_missing_column_is_named_in_the_error(self):
        uniform = encode_weighted_batches(self.BATCHES[1:2])
        with pytest.raises(ConfigurationError, match="declares 2 records"):
            decode_weighted_batches(uniform[:-16])  # the value column gone
        per_record = encode_weighted_batches(self.BATCHES[:1])
        with pytest.raises(ConfigurationError, match="declares 3 records"):
            decode_weighted_batches(per_record[:-24])  # the value column gone
        with pytest.raises(ConfigurationError, match="declares 3 records"):
            decode_weighted_batches(per_record[:-48])  # both columns gone

    @pytest.mark.parametrize("tag", [0, 1, 255])
    def test_an_unknown_format_tag_is_rejected(self, tag):
        frame = bytearray(encode_weighted_batch(self.BATCHES[1]))
        frame[4] = tag
        with pytest.raises(ConfigurationError, match="format tag"):
            decode_weighted_batch(bytes(frame))


class TestSerde:
    def test_weighted_batches_use_the_binary_format(self):
        batch = WeightedBatch(
            "A", 2.0, ColumnarBatch.single("A", [1.0, 2.0], 0.0)
        )
        blob = COLUMNAR_SERDE.serialize(batch)
        assert blob[:4] == b"RWB1"
        assert COLUMNAR_SERDE.deserialize(blob).estimated_sum == pytest.approx(
            batch.estimated_sum
        )

    def test_non_batch_values_fall_back_to_pickle(self):
        value = {"offsets": [1, 2, 3]}
        blob = COLUMNAR_SERDE.serialize(value)
        assert blob[:4] == b"RPK1"
        assert COLUMNAR_SERDE.deserialize(blob) == value


class TestBrokerTransportSerde:
    GENS = {g.name: g for g in paper_gaussian_substreams()}
    SCHEDULE = RateSchedule(
        "serde", {"A": 200.0, "B": 200.0, "C": 200.0, "D": 200.0}
    )

    def test_serde_backed_broker_run_is_bit_identical(self):
        """Producing real bytes instead of object references changes
        nothing about a seeded run — the codec is exact."""
        outcomes = {}
        for serde in (None, COLUMNAR_SERDE):
            config = PipelineConfig(
                sampling_fraction=0.2,
                seed=13,
            )
            pipeline = build_pipeline(config, self.SCHEDULE, self.GENS)
            runner = EngineRunner(pipeline, BrokerTransport(serde=serde))
            outcomes[serde is None] = runner.run(3)
        direct, encoded = outcomes[True], outcomes[False]
        for a, b in zip(direct.windows, encoded.windows):
            assert a.approx_sum.value == b.approx_sum.value
            assert a.approx_sum.error == b.approx_sum.error
            assert a.srs_sum == b.srs_sum
            assert a.items_sampled == b.items_sampled
