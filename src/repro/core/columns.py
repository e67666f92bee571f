"""Columnar (structure-of-arrays) batches — the one record representation.

A :class:`ColumnarBatch` holds a set of stream records as four parallel
columns (sub-stream ids, values, emission timestamps, serialized
sizes), so the hot path — rate spreading, grouping, reservoir
selection, weighted sums, coin flips — is array indexing instead of
per-item attribute access. It is the only payload the engine, the
transports, the codec, the shards and the deployment simulator move.

Columns are numpy ``float64`` arrays when numpy is importable and
stdlib ``array('d')`` buffers otherwise: the base install declares no
dependencies, so the ``array('d')`` storage is the only one that runs
there (slower, identical results).

* **Seeded determinism.** Every per-record random decision is made
  once, on columns: the sampling kernels select survivor *indices* and
  one coin-flip mask is applied to a column. A seeded run is therefore
  deterministic per ``(seed, backend)`` on every transport and every
  shard count. The ``python`` backend draws one ``random.Random`` call
  per record and is bit-stable across releases; the ``numpy`` backend
  draws whole columns from per-source ``numpy.random.Generator``
  streams (same distributions, different identities — the rule
  :mod:`repro.core.fastpath` set for reservoirs).
* **The edge adapter.** :class:`~repro.core.items.StreamItem` lists are
  accepted and returned at the public API edge only:
  :meth:`ColumnarBatch.from_items` converts one in (and returns a
  ``ColumnarBatch`` argument unchanged), :meth:`ColumnarBatch.to_items`
  and iteration hand ``StreamItem`` objects back out, so per-item
  consumers (streams processors, queries, examples) keep their
  contracts.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.core.items import StreamItem
from repro.errors import SamplingError

try:  # pragma: no cover - trivially environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "ColumnarBatch",
    "concat_value_chunks",
    "masked_sum",
    "value_column",
]

#: Default serialized item size, mirroring ``StreamItem.size_bytes``.
DEFAULT_ITEM_BYTES = 100


def value_column(values: Iterable[float]):
    """Materialize an iterable of floats as a contiguous column."""
    if _np is not None:
        if not isinstance(values, (list, tuple, array, _np.ndarray)):
            values = list(values)  # asarray rejects lazy iterables
        return _np.asarray(values, dtype=_np.float64)
    return values if isinstance(values, array) else array("d", values)


def _empty_column():
    if _np is not None:
        return _np.empty(0, dtype=_np.float64)
    return array("d")


def _take(column, indices):
    """Gather ``column[i]`` per index (an ``intp`` array as is, or a list)."""
    if _np is not None and isinstance(column, _np.ndarray):
        return column[indices]
    return array("d", (column[i] for i in indices))


def _concat(columns: list):
    if len(columns) == 1:
        return columns[0]
    if _np is not None and all(isinstance(c, _np.ndarray) for c in columns):
        return _np.concatenate(columns)
    merged = array("d")
    for column in columns:
        merged.extend(column)
    return merged


def _column_sum(column) -> float:
    if _np is not None and isinstance(column, _np.ndarray):
        return float(column.sum())
    return float(sum(column))


class ColumnarBatch:
    """A set of stream records stored as parallel columns (SoA).

    Attributes:
        substreams: The per-record stratum ids — a single ``str`` when
            every record belongs to one sub-stream (the common case:
            sources are per-stratum, and sampled batches are grouped),
            or a ``list[str]`` for mixed batches (e.g. the skewed
            mixture workload before stratification).
        values: Contiguous float64 column of record payloads.
        timestamps: Contiguous float64 column of emission times.
        sizes: Serialized record sizes for bandwidth accounting — a
            single ``int`` when uniform, or a ``list[int]`` per record.
    """

    __slots__ = ("substreams", "values", "timestamps", "sizes")

    def __init__(self, substreams, values, timestamps, sizes=DEFAULT_ITEM_BYTES):
        self.substreams = substreams
        self.values = values
        self.timestamps = timestamps
        self.sizes = sizes
        if len(values) != len(timestamps):
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
        column = value_column(values)
        n = len(column)
        if _np is not None and isinstance(column, _np.ndarray):
            timestamps = _np.full(n, float(emitted_at))
        else:
            timestamps = array("d", [float(emitted_at)]) * n
        return cls(substream, column, timestamps, size_bytes)

    @classmethod
    def empty(cls) -> "ColumnarBatch":
        """A zero-record batch (what a silent interval emits)."""
        return cls("", _empty_column(), _empty_column())

    @classmethod
    def from_items(
        cls, items: "Iterable[StreamItem] | ColumnarBatch"
    ) -> "ColumnarBatch":
        """Transpose ``StreamItem`` records into columns (the edge adapter).

        A ``ColumnarBatch`` argument is returned unchanged, so callers
        that accept either form normalise with one call.
        """
        if isinstance(items, ColumnarBatch):
            return items
        items = list(items)
        if not items:
            return cls.empty()
        ids = [item.substream for item in items]
        first_id = ids[0]
        substreams = first_id if all(s == first_id for s in ids) else ids
        sizes_list = [item.size_bytes for item in items]
        first_size = sizes_list[0]
        sizes = (
            first_size
            if all(s == first_size for s in sizes_list)
            else sizes_list
        )
        return cls(
            substreams,
            value_column([item.value for item in items]),
            value_column([item.emitted_at for item in items]),
            sizes,
        )

    @classmethod
    def concat(cls, batches: Sequence["ColumnarBatch"]) -> "ColumnarBatch":
        """Stack batches record-wise, preserving order."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        tags = [b.substreams for b in batches if isinstance(b.substreams, str)]
        if len(tags) == len(batches) and len(set(tags)) == 1:
            substreams: str | list[str] = tags[0]
        else:
            substreams = []
            for batch in batches:
                substreams.extend(batch.substream_ids())
        uniform = [b.sizes for b in batches if isinstance(b.sizes, int)]
        if len(uniform) == len(batches) and len(set(uniform)) == 1:
            sizes: int | list[int] = uniform[0]
        else:
            sizes = []
            for batch in batches:
                sizes.extend(batch.size_list())
        return cls(
            substreams,
            _concat([b.values for b in batches]),
            _concat([b.timestamps for b in batches]),
            sizes,
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
        """Sum of the value column (one vector op on numpy columns)."""
        return _column_sum(self.values)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def select(self, indices) -> "ColumnarBatch":
        """Gather the records at ``indices`` (an ``intp`` array or a list)."""
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
            _take(self.values, indices),
            _take(self.timestamps, indices),
            sizes,
        )

    def compress(self, mask: Sequence[bool]) -> "ColumnarBatch":
        """Keep the records whose mask entry is true (vectorized filter)."""
        if len(mask) != len(self):
            raise SamplingError(
                f"mask length {len(mask)} does not match batch of {len(self)}"
            )
        if _np is not None and isinstance(self.values, _np.ndarray):
            indices = _np.nonzero(_np.asarray(mask, dtype=bool))[0]
        else:
            indices = [i for i, keep in enumerate(mask) if keep]
        return self.select(indices)

    def spread_offsets(self, interval_seconds: float):
        """Offsets spreading the records uniformly over an interval.

        Element-wise ``interval_seconds * (i + 1) / (count + 1)``,
        added to the interval start by :meth:`with_timestamps_from`. A
        function of count and interval length alone, so a steady-rate
        source computes it once and reuses it.
        """
        n = len(self)
        if _np is not None and isinstance(self.values, _np.ndarray):
            offsets = interval_seconds * _np.arange(1, n + 1, dtype=_np.float64)
            return offsets / (n + 1)
        return array("d", (interval_seconds * (i + 1) / (n + 1) for i in range(n)))

    def with_timestamps_from(self, interval_start: float, offsets) -> "ColumnarBatch":
        """The same records re-stamped at ``interval_start + offsets``."""
        if _np is not None and isinstance(self.values, _np.ndarray):
            timestamps = interval_start + offsets
        else:
            timestamps = array("d", (interval_start + o for o in offsets))
        return ColumnarBatch(self.substreams, self.values, timestamps, self.sizes)

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
                _take(self.values, indices),
                _take(self.timestamps, indices),
                self.sizes
                if isinstance(self.sizes, int)
                else [self.sizes[i] for i in indices],
            )
            for substream, indices in groups.items()
        }

    # ------------------------------------------------------------------
    # The StreamItem edge
    # ------------------------------------------------------------------
    def to_items(self) -> list[StreamItem]:
        """Materialize ``StreamItem`` records (the edge adapter, outbound)."""
        return list(self)

    def __iter__(self) -> Iterator[StreamItem]:
        ids = (
            [self.substreams] * len(self)
            if isinstance(self.substreams, str)
            else self.substreams
        )
        sizes = (
            [self.sizes] * len(self)
            if isinstance(self.sizes, int)
            else self.sizes
        )
        for substream, value, timestamp, size in zip(
            ids, self.values, self.timestamps, sizes
        ):
            yield StreamItem(substream, float(value), float(timestamp), int(size))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = self.uniform_substream
        label = tag if tag is not None else f"{len(set(self.substreams))} strata"
        return f"ColumnarBatch({label!r}, n={len(self)})"


def masked_sum(column, mask: Sequence[bool]) -> float:
    """Sum of the column entries whose mask entry is true.

    One select-and-reduce vector op on numpy columns; the SRS
    baseline's Horvitz-Thompson numerator.
    """
    if _np is not None and isinstance(column, _np.ndarray):
        return float(column[_np.asarray(mask, dtype=bool)].sum())
    return float(sum(value for value, keep in zip(column, mask) if keep))


def concat_value_chunks(chunks: list) -> Sequence[float]:
    """Flatten per-batch value columns into one contiguous column.

    The root estimator accumulates one value column per stored batch;
    merging them keeps the variance estimator one vector op on numpy
    columns. A single chunk passes through untouched.
    """
    return _concat(chunks)
