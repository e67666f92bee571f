"""Topics: named collections of partition logs.

A topic shards records across a fixed number of partitions. Keyed
records hash to a stable partition (so per-key ordering holds, the
property ApproxIoT relies on to keep each sub-stream ordered); unkeyed
records round-robin for load spreading.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.broker.log import PartitionLog
from repro.broker.records import ConsumedRecord, Record
from repro.errors import ConfigurationError, UnknownPartitionError

__all__ = ["Topic"]


def _stable_hash(key: str) -> int:
    """Deterministic string hash (process-independent, unlike hash())."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


class Topic:
    """A named, partitioned, append-only stream of records."""

    def __init__(self, name: str, partitions: int = 1) -> None:
        if partitions <= 0:
            raise ConfigurationError(
                f"topic needs >= 1 partition, got {partitions}"
            )
        self.name = name
        self._logs = [PartitionLog(name, p) for p in range(partitions)]
        self._round_robin = 0

    @property
    def partition_count(self) -> int:
        """Number of partitions in this topic."""
        return len(self._logs)

    def partition_for(self, key: str | None) -> int:
        """Partition a record with this key would go to.

        Keyed records use a stable hash; unkeyed records advance a
        round-robin counter (so calling this for ``None`` has a side
        effect, as in a real producer's default partitioner).
        """
        if key is not None:
            return _stable_hash(key) % len(self._logs)
        partition = self._round_robin
        self._round_robin = (self._round_robin + 1) % len(self._logs)
        return partition

    def log(self, partition: int) -> PartitionLog:
        """Access one partition's log."""
        if not 0 <= partition < len(self._logs):
            raise UnknownPartitionError(
                f"topic {self.name!r} has no partition {partition}"
            )
        return self._logs[partition]

    def append(self, record: Record, partition: int | None = None) -> tuple[int, int]:
        """Append a record; return its ``(partition, offset)``."""
        target = self.partition_for(record.key) if partition is None else partition
        log = self.log(target)
        offset = log.append(record)
        return target, offset

    def read(
        self, partition: int, offset: int, max_records: int | None = None
    ) -> list[ConsumedRecord]:
        """Read from one partition starting at an offset."""
        return self.log(partition).read(offset, max_records)

    def end_offsets(self) -> dict[int, int]:
        """High watermark per partition."""
        return {log.partition: log.end_offset for log in self._logs}

    def append_batch(
        self, records: Iterable[Record]
    ) -> list[tuple[int, int]]:
        """Append several records; return their positions."""
        return [self.append(record) for record in records]
