"""Record types and serialization for the pub/sub substrate.

Mirrors Kafka's data model: a :class:`Record` is a key/value pair with
a timestamp and optional headers; a :class:`ConsumedRecord` is the same
plus its position (topic, partition, offset) once read back from a log.
Values are arbitrary Python objects by default; a pluggable
:class:`Serde` pair exists so tests can exercise the byte-size
accounting used by the network simulator.

The module also hosts the engine's compact binary codec for weighted
batches (:func:`encode_weighted_batch` / :data:`COLUMNAR_SERDE`): a
batch's records travel as raw little-endian column buffers (numpy
buffer views/``frombuffer``, stdlib ``array('d')`` fallback) instead of
a per-record pickle graph. This is what the sharded execution engine
ships between worker processes and what :class:`BrokerTransport` uses
when given a serde, so cross-process transport cost scales with bytes,
not with record count.

The codec has a zero-copy-friendly surface for the shared-memory shard
transport (:mod:`repro.engine.shm`): the ``*_chunks`` encoders return
the raw byte chunks without joining them (float columns as views of
their own buffers: each lands in the shared segment with one copy),
and the decoders accept any bytes-like buffer — a ``memoryview`` over
a shared segment decodes in place, with numpy ``frombuffer`` reading
the column bytes straight off the shared pages before copying out into
owned columns.
"""

from __future__ import annotations

import json
import pickle
import struct
import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.errors import ConfigurationError

try:  # pragma: no cover - trivially environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "Record",
    "ConsumedRecord",
    "Serde",
    "JSON_SERDE",
    "PICKLE_SERDE",
    "COLUMNAR_SERDE",
    "encode_weighted_batch",
    "encode_weighted_batch_chunks",
    "decode_weighted_batch",
    "encode_weighted_batches",
    "encode_weighted_batches_chunks",
    "decode_weighted_batches",
]


@dataclass(frozen=True, slots=True)
class Record:
    """A produced record, before it is assigned an offset.

    Attributes:
        key: Partitioning key (``None`` lets the producer round-robin).
        value: The payload.
        timestamp: Producer-assigned event time (seconds).
        headers: Optional string metadata, like Kafka record headers.
    """

    key: str | None
    value: Any
    timestamp: float = 0.0
    headers: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ConsumedRecord:
    """A record read from a partition log, with its position attached."""

    topic: str
    partition: int
    offset: int
    key: str | None
    value: Any
    timestamp: float
    headers: Mapping[str, str] = field(default_factory=dict)

    @property
    def position(self) -> tuple[str, int, int]:
        """The (topic, partition, offset) coordinate of this record."""
        return (self.topic, self.partition, self.offset)


@dataclass(frozen=True, slots=True)
class Serde:
    """A serializer/deserializer pair for payload byte accounting."""

    serialize: Callable[[Any], bytes]
    deserialize: Callable[[bytes], Any]

    def size_of(self, value: Any) -> int:
        """Serialized size of a value in bytes."""
        return len(self.serialize(value))


def _json_ser(value: Any) -> bytes:
    return json.dumps(value, separators=(",", ":"), default=str).encode()


def _json_de(data: bytes) -> Any:
    return json.loads(data.decode())


JSON_SERDE = Serde(_json_ser, _json_de)
PICKLE_SERDE = Serde(pickle.dumps, pickle.loads)


# ----------------------------------------------------------------------
# Compact binary codec for weighted batches
# ----------------------------------------------------------------------
#
# Wire layout (all integers/floats little-endian):
#
#   batch   := MAGIC format:u8 substream:str weight:f64 n:u64
#              tags sizes values:(n x f64) timestamps:(n x f64)
#   tags    := 0x00 str            (every record in one sub-stream)
#            | 0x01 str * n        (per-record stratum ids)
#   sizes   := 0x00 i64            (uniform serialized size)
#            | 0x01 i64 * n        (per-record sizes)
#   str     := len:u32 utf8-bytes
#
# ``format`` is a tag with one legal value, 1 (column buffers); the
# decoder rejects any other. The record data crosses the wire as
# whole column buffers — the encoder never walks a Python object per
# record, and the decoder rebuilds columns with one ``frombuffer`` per
# column.

_BATCH_MAGIC = b"RWB1"
_PICKLE_MAGIC = b"RPK1"
_FORMAT_TAG = 1


def _pack_str(out: list[bytes], text: str) -> None:
    data = text.encode()
    out.append(struct.pack("<I", len(data)))
    out.append(data)


def _unpack_str(data, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<I", data, offset)
    offset += 4
    return bytes(data[offset : offset + length]).decode(), offset + length


def _float_column_bytes(column) -> bytes | memoryview:
    """A float column as raw little-endian float64 bytes, uncopied.

    The chunk is a view of the column's own buffer, so the consumer's
    ring write (or ``join``) is the one copy; a zero-length view cannot
    be cast, hence the empty ``bytes``.
    """
    if not len(column):
        return b""
    if _np is not None and isinstance(column, _np.ndarray):
        return memoryview(_np.ascontiguousarray(column, dtype="<f8")).cast("B")
    buf = column if isinstance(column, array) else array("d", column)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts only
        buf = array("d", buf)
        buf.byteswap()
    return memoryview(buf).cast("B")


def _float_column_from(data: bytes):
    """Rebuild a float column from raw little-endian float64 bytes.

    The result owns its buffer (numpy copies out of the message bytes),
    so decoded batches never alias transport buffers.
    """
    if _np is not None:
        return _np.frombuffer(data, dtype="<f8").astype(_np.float64)
    buf = array("d")
    buf.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - exotic hosts only
        buf.byteswap()
    return buf


def encode_weighted_batch_chunks(batch: WeightedBatch) -> list[bytes | memoryview]:
    """One batch's wire bytes as a chunk list, without the final join.

    The shared-memory shard transport writes each chunk straight into
    its segment — one copy per column buffer (views, valid while the
    batch is unmodified), no intermediate joined bytes object. Joining
    the chunks yields exactly :func:`encode_weighted_batch`'s output,
    so the two paths are bit-identical on the wire.

    Float values and timestamps round-trip bit-for-bit through
    float64, and per-record sizes are preserved, so byte accounting
    (``WeightedBatch.total_bytes``) is unchanged by a round trip.
    """
    columns = batch.items
    out: list[bytes | memoryview] = [
        _BATCH_MAGIC, struct.pack("<B", _FORMAT_TAG)
    ]
    _pack_str(out, batch.substream)
    out.append(struct.pack("<dQ", batch.weight, len(columns)))
    if isinstance(columns.substreams, str):
        out.append(b"\x00")
        _pack_str(out, columns.substreams)
    else:
        out.append(b"\x01")
        for tag in columns.substreams:
            _pack_str(out, tag)
    if isinstance(columns.sizes, int):
        out.append(b"\x00")
        out.append(struct.pack("<q", columns.sizes))
    else:
        sizes = array("q", columns.sizes)
        if sys.byteorder == "big":  # pragma: no cover - exotic hosts only
            sizes.byteswap()
        out.append(b"\x01")
        out.append(sizes.tobytes())
    out.append(_float_column_bytes(columns.values))
    out.append(_float_column_bytes(columns.timestamps))
    return out


def encode_weighted_batch(batch: WeightedBatch) -> bytes:
    """Serialize one ``(W_out, I)`` pair without per-record pickling.

    The joined form of :func:`encode_weighted_batch_chunks` — what the
    pipe codec sends and what :data:`COLUMNAR_SERDE` produces.
    """
    return b"".join(encode_weighted_batch_chunks(batch))


def _decode_weighted_batch(data, offset: int) -> tuple[WeightedBatch, int]:
    if bytes(data[offset : offset + 4]) != _BATCH_MAGIC:
        raise ConfigurationError(
            "not a binary weighted batch (bad magic); was this record "
            "produced without the columnar serde?"
        )
    offset += 4
    try:
        if data[offset] != _FORMAT_TAG:
            raise ConfigurationError(
                f"unknown weighted-batch format tag {data[offset]}; expected "
                f"{_FORMAT_TAG}"
            )
        offset += 1
        substream, offset = _unpack_str(data, offset)
        weight, n = struct.unpack_from("<dQ", data, offset)
        offset += 16
        tags: str | list[str]
        if data[offset] == 0:
            tags, offset = _unpack_str(data, offset + 1)
        else:
            offset += 1
            per_record = []
            for _ in range(n):
                tag, offset = _unpack_str(data, offset)
                per_record.append(tag)
            tags = per_record
        sizes: int | list[int]
        if data[offset] == 0:
            (sizes,) = struct.unpack_from("<q", data, offset + 1)
            offset += 9
        else:
            offset += 1
            size_column = array("q")
            size_column.frombytes(data[offset : offset + 8 * n])
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts only
                size_column.byteswap()
            sizes = size_column.tolist()
            offset += 8 * n
    except (IndexError, struct.error) as exc:
        raise ConfigurationError(
            f"truncated weighted batch: the frame ends inside the header "
            f"({exc})"
        ) from exc
    values = _float_column_from(data[offset : offset + 8 * n])
    offset += 8 * n
    timestamps = _float_column_from(data[offset : offset + 8 * n])
    offset += 8 * n
    if len(values) != n or len(timestamps) != n:
        raise ConfigurationError(
            f"truncated weighted batch: header declares {n} records, "
            f"frame holds {len(values)} values and {len(timestamps)} "
            f"timestamps"
        )
    columns = ColumnarBatch(tags, values, timestamps, sizes)
    return WeightedBatch(substream, weight, columns), offset


def decode_weighted_batch(data) -> WeightedBatch:
    """Inverse of :func:`encode_weighted_batch` (any bytes-like buffer)."""
    batch, _offset = _decode_weighted_batch(data, 0)
    return batch


def encode_weighted_batches_chunks(
    batches: list[WeightedBatch],
) -> list[bytes | memoryview]:
    """A whole Theta contribution's wire bytes as a chunk list.

    The shared-memory framing: the sharded engine writes these chunks
    directly into a shard's segment, so a window's column buffers are
    copied exactly once on the encode side. Joining the chunks yields
    exactly :func:`encode_weighted_batches`'s output.
    """
    out = [struct.pack("<I", len(batches))]
    for batch in batches:
        out.extend(encode_weighted_batch_chunks(batch))
    return out


def encode_weighted_batches(batches: list[WeightedBatch]) -> bytes:
    """Serialize a sequence of weighted batches into one message.

    The framing the sharded engine's pipe codec ships per window: a
    shard's whole Theta contribution crosses the process boundary as
    one buffer.
    """
    return b"".join(encode_weighted_batches_chunks(batches))


def decode_weighted_batches(data) -> list[WeightedBatch]:
    """Inverse of :func:`encode_weighted_batches`.

    Accepts any bytes-like buffer. Handing it a ``memoryview`` over a
    shared-memory segment decodes in place — numpy reads each column
    with one ``frombuffer`` view over the shared pages — and the
    decoded batches copy out, never aliasing the buffer.
    """
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    batches: list[WeightedBatch] = []
    for _ in range(count):
        batch, offset = _decode_weighted_batch(data, offset)
        batches.append(batch)
    return batches


def _columnar_ser(value: Any) -> bytes:
    if isinstance(value, WeightedBatch):
        return encode_weighted_batch(value)
    return _PICKLE_MAGIC + pickle.dumps(value)


def _columnar_de(data: bytes) -> Any:
    if data[:4] == _PICKLE_MAGIC:
        return pickle.loads(data[4:])
    return decode_weighted_batch(data)


#: Serde moving :class:`~repro.core.items.WeightedBatch` values as
#: compact column buffers (non-batch values fall back to pickle with a
#: distinguishing prefix). Hand it to
#: :class:`~repro.engine.transport.BrokerTransport` to make every
#: produced record a real byte payload instead of an object reference —
#: the configuration a multi-process broker deployment would run.
COLUMNAR_SERDE = Serde(_columnar_ser, _columnar_de)
