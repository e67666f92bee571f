"""Append-only partition log — the storage primitive under every topic.

Kafka's unit of storage is a partition: an ordered, immutable sequence
of records addressed by a monotonically-increasing offset. Consumers
pull ranges by offset. This module implements that contract in memory,
with high-watermark bookkeeping.
"""

from __future__ import annotations

from repro.broker.records import ConsumedRecord, Record
from repro.errors import OffsetOutOfRangeError

__all__ = ["PartitionLog"]


class PartitionLog:
    """An in-memory, offset-addressed append-only log."""

    def __init__(self, topic: str, partition: int) -> None:
        self.topic = topic
        self.partition = partition
        self._records: list[Record] = []

    @property
    def end_offset(self) -> int:
        """The next offset to be assigned (the high watermark)."""
        return len(self._records)

    def append(self, record: Record) -> int:
        """Append one record; return the offset it was assigned."""
        self._records.append(record)
        return self.end_offset - 1

    def read(self, offset: int, max_records: int | None = None) -> list[ConsumedRecord]:
        """Read records starting at ``offset`` (up to ``max_records``).

        Reading exactly at the end offset returns an empty list (a poll
        with no new data); reading beyond it, or below offset 0, raises
        :class:`OffsetOutOfRangeError`.
        """
        if offset < 0 or offset > self.end_offset:
            raise OffsetOutOfRangeError(
                f"offset {offset} outside [0, {self.end_offset}] "
                f"for {self.topic}-{self.partition}"
            )
        end = len(self._records) if max_records is None else offset + max_records
        out: list[ConsumedRecord] = []
        for index, record in enumerate(self._records[offset:end], start=offset):
            out.append(
                ConsumedRecord(
                    topic=self.topic,
                    partition=self.partition,
                    offset=index,
                    key=record.key,
                    value=record.value,
                    timestamp=record.timestamp,
                    headers=record.headers,
                )
            )
        return out
