"""Columnar (structure-of-arrays) batches — the one record representation.

A :class:`ColumnarBatch` holds a set of stream records as three parallel
columns (sub-stream ids, values, serialized sizes) plus their emission
time, so the hot path — rate spreading, grouping, reservoir
selection, weighted sums, coin flips — is array indexing instead of
per-item attribute access. It is the only payload the engine, the
transports, the codec, the shards and the deployment simulator move.

Values are a numpy ``float64`` array. Ids, sizes and emission times
collapse to one scalar when every record shares it — the common case:
a source emits one stratum at one size at one instant, and only the
deployment simulator, which measures latency, stamps per-record times
(:meth:`ColumnarBatch.with_timestamps`). Columns become arrays
once, where records enter — :func:`value_column`,
:meth:`ColumnarBatch.single` and the codec's decoder — so every
gather, sum and filter below is one array op.

* **Seeded determinism.** Every per-record random decision is made
  once, on columns: the sampling kernel selects survivor *indices* and
  one coin-flip mask is applied to a column, and generators draw whole
  columns from per-source ``numpy.random.Generator`` streams. A seeded
  run is therefore deterministic per seed on every transport and every
  shard count.
* **No row form.** There is no per-record object at any API: callers
  build batches from value lists with :meth:`ColumnarBatch.single` and
  read results from the columns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SamplingError

import numpy as _np

__all__ = [
    "ColumnarBatch",
    "concat_value_chunks",
    "masked_sum",
    "value_column",
]

#: Default serialized record size in bytes.
DEFAULT_ITEM_BYTES = 100


def value_column(values: Iterable[float]):
    """Materialize an iterable of floats as a contiguous float64 column."""
    if not isinstance(values, (list, tuple, _np.ndarray)):
        values = list(values)  # asarray rejects lazy iterables
    return _np.asarray(values, dtype=_np.float64)


def _empty_column():
    return _np.empty(0, dtype=_np.float64)


def _shared(fields: list, kind: type):
    """The one scalar ``kind`` field every batch carries, else ``None``."""
    first = fields[0]
    for field in fields:  # a plain loop: the root joins batches per window
        if not (isinstance(field, kind) and field == first):
            return None
    return first


def _concat(columns: list):
    if len(columns) == 1:
        return columns[0]
    return _np.concatenate(columns)


class ColumnarBatch:
    """A set of stream records stored as parallel columns (SoA).

    Attributes:
        substreams: The per-record stratum ids — a single ``str`` when
            every record belongs to one sub-stream (the common case:
            sources are per-stratum, and sampled batches are grouped),
            or a ``list[str]`` for mixed batches (e.g. the skewed
            mixture workload before stratification).
        values: float64 array of record payloads.
        timestamps: Emission times — a single ``float`` when every
            record was emitted at one instant (what sources emit), or a
            float64 array per record (what the deployment simulator
            stamps for latency accounting).
        sizes: Serialized record sizes for bandwidth accounting — a
            single ``int`` when uniform, or a ``list[int]`` per record.
    """

    __slots__ = ("substreams", "values", "timestamps", "sizes")

    def __init__(self, substreams, values, timestamps, sizes=DEFAULT_ITEM_BYTES):
        self.substreams = substreams
        self.values = values
        self.timestamps = timestamps
        self.sizes = sizes
        per_record = not isinstance(timestamps, float)
        if per_record and len(values) != len(timestamps):
            raise SamplingError(
                f"column length mismatch: {len(values)} values vs "
                f"{len(timestamps)} timestamps"
            )
        if not isinstance(substreams, str) and len(substreams) != len(values):
            raise SamplingError(
                f"column length mismatch: {len(values)} values vs "
                f"{len(substreams)} substream ids"
            )
        if not isinstance(sizes, int) and len(sizes) != len(values):
            raise SamplingError(
                f"column length mismatch: {len(values)} values vs "
                f"{len(sizes)} sizes"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        substream: str,
        values: Iterable[float],
        emitted_at: float = 0.0,
        size_bytes: int = DEFAULT_ITEM_BYTES,
    ) -> "ColumnarBatch":
        """A uniform-stratum batch with a constant emission time."""
        return cls(
            substream, value_column(values), float(emitted_at), size_bytes
        )

    @classmethod
    def empty(cls) -> "ColumnarBatch":
        """A zero-record batch (what a silent interval emits)."""
        return cls("", _empty_column(), _empty_column())

    @classmethod
    def concat(cls, batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """Stack batches record-wise, preserving order."""
        batches = [batch for batch in batches if len(batch.values)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        substreams = _shared([b.substreams for b in batches], str)
        if substreams is None:
            substreams = []
            for batch in batches:
                substreams.extend(batch.substream_ids())
        sizes = _shared([b.sizes for b in batches], int)
        if sizes is None:
            sizes = []
            for batch in batches:
                sizes.extend(batch.size_list())
        timestamps = _shared([b.timestamps for b in batches], float)
        if timestamps is None:
            timestamps = _concat([b.timestamp_column() for b in batches])
        return cls(
            substreams, _concat([b.values for b in batches]), timestamps, sizes
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def uniform_substream(self) -> str | None:
        """The single stratum id, or ``None`` for a mixed batch."""
        return self.substreams if isinstance(self.substreams, str) else None

    def substream_ids(self) -> list[str]:
        """Per-record stratum ids (materializes the uniform tag)."""
        if isinstance(self.substreams, str):
            return [self.substreams] * len(self)
        return list(self.substreams)

    def timestamp_column(self):
        """Per-record emission times (materializes the uniform stamp)."""
        if isinstance(self.timestamps, float):
            return _np.full(len(self), self.timestamps)
        return self.timestamps

    def size_list(self) -> list[int]:
        """Per-record serialized sizes (materializes the uniform size)."""
        if isinstance(self.sizes, int):
            return [self.sizes] * len(self)
        return list(self.sizes)

    @property
    def total_bytes(self) -> int:
        """Serialized payload size for bandwidth accounting."""
        if isinstance(self.sizes, int):
            return self.sizes * len(self)
        return int(sum(self.sizes))

    def value_sum(self) -> float:
        """Sum of the value column (one vector op).

        ``add.reduce`` is what ``ndarray.sum`` runs, called directly:
        the same pairwise sum, without the method's Python wrapper.
        """
        return float(_np.add.reduce(self.values))

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def select(self, indices) -> "ColumnarBatch":
        """Gather the records at ``indices`` (an ``intp`` array or a list)."""
        if (
            isinstance(self.substreams, str)
            and isinstance(self.sizes, int)
            and isinstance(self.timestamps, float)
        ):
            # A uniform batch (what sources emit): the gather is the
            # value column alone.
            return ColumnarBatch(
                self.substreams, self.values[indices], self.timestamps,
                self.sizes,
            )
        substreams = (
            self.substreams
            if isinstance(self.substreams, str)
            else [self.substreams[i] for i in indices]
        )
        sizes = (
            self.sizes
            if isinstance(self.sizes, int)
            else [self.sizes[i] for i in indices]
        )
        return ColumnarBatch(
            substreams,
            self.values[indices],
            self._stamps_at(indices),
            sizes,
        )

    def _stamps_at(self, indices):
        if isinstance(self.timestamps, float):
            return self.timestamps
        return self.timestamps[indices]

    def compress(self, mask: Sequence[bool]) -> "ColumnarBatch":
        """Keep the records whose mask entry is true (vectorized filter)."""
        if len(mask) != len(self):
            raise SamplingError(
                f"mask length {len(mask)} does not match batch of {len(self)}"
            )
        indices = _np.nonzero(_np.asarray(mask, dtype=bool))[0]
        return self.select(indices)

    def spread_offsets(self, interval_seconds: float):
        """Offsets spreading the records uniformly over an interval.

        Element-wise ``interval_seconds * (i + 1) / (count + 1)``; the
        interval start plus these is the column
        :meth:`with_timestamps` takes. A function of count and interval
        length alone, so a caller computes it once per count and reuses
        it.
        """
        n = len(self)
        offsets = interval_seconds * _np.arange(1, n + 1, dtype=_np.float64)
        return offsets / (n + 1)

    def with_timestamps(self, stamps) -> "ColumnarBatch":
        """The same records re-stamped with the column ``stamps``."""
        return ColumnarBatch(self.substreams, self.values, stamps, self.sizes)

    def group_by_substream(self) -> dict[str, "ColumnarBatch"]:
        """Stratify by sub-stream id, preserving first-occurrence order.

        The columnar ``Update`` step (Algorithm 1, line 5): uniform
        batches — the common case — return themselves without touching
        a single record. Grouped chunks carry the *uniform* stratum
        tag (not a per-record list of identical strings), so they
        re-enter every single-stratum fast path downstream.
        """
        if len(self) == 0:
            return {}
        if isinstance(self.substreams, str):
            return {self.substreams: self}
        groups: dict[str, list[int]] = {}
        for index, substream in enumerate(self.substreams):
            groups.setdefault(substream, []).append(index)
        return {
            substream: ColumnarBatch(
                substream,
                self.values[indices],
                self._stamps_at(indices),
                self.sizes
                if isinstance(self.sizes, int)
                else [self.sizes[i] for i in indices],
            )
            for substream, indices in groups.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = self.uniform_substream
        label = tag if tag is not None else f"{len(set(self.substreams))} strata"
        return f"ColumnarBatch({label!r}, n={len(self)})"


def masked_sum(column, mask: Sequence[bool]) -> float:
    """Sum of the column entries whose mask entry is true.

    One ``compress``-and-reduce vector op (the kept entries in column
    order, so the same sum as a boolean-index gather); the SRS
    baseline's Horvitz-Thompson numerator.
    """
    kept = _np.compress(_np.asarray(mask, dtype=bool), column)
    return float(_np.add.reduce(kept))


def concat_value_chunks(chunks: list) -> Sequence[float]:
    """Flatten per-batch value columns into one contiguous column.

    The root estimator accumulates one value column per stored batch;
    merging them keeps the variance estimator one vector op. A single
    chunk passes through untouched.
    """
    return _concat(chunks)
