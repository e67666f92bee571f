"""Unit tests for the append-only partition log."""

import pytest

from repro.broker.log import PartitionLog
from repro.broker.records import Record
from repro.errors import OffsetOutOfRangeError


def rec(value):
    return Record(key=None, value=value)


class TestAppend:
    def test_offsets_are_sequential(self):
        log = PartitionLog("t", 0)
        assert [log.append(rec(i)) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_end_offset_tracks_appends(self):
        log = PartitionLog("t", 0)
        assert log.end_offset == 0
        log.append(rec("a"))
        assert log.end_offset == 1


class TestRead:
    def test_read_returns_positions(self):
        log = PartitionLog("topic", 3)
        log.append(rec("a"))
        log.append(rec("b"))
        out = log.read(0)
        assert [r.value for r in out] == ["a", "b"]
        assert (out[0].topic, out[0].partition, out[0].offset) == ("topic", 3, 0)
        assert out[1].offset == 1

    def test_read_from_middle(self):
        log = PartitionLog("t", 0)
        for i in range(10):
            log.append(rec(i))
        assert [r.value for r in log.read(7)] == [7, 8, 9]

    def test_read_at_end_is_empty(self):
        log = PartitionLog("t", 0)
        log.append(rec("a"))
        assert log.read(1) == []

    def test_read_beyond_end_raises(self):
        log = PartitionLog("t", 0)
        with pytest.raises(OffsetOutOfRangeError):
            log.read(1)

    def test_read_below_zero_raises(self):
        log = PartitionLog("t", 0)
        log.append(rec("a"))
        with pytest.raises(OffsetOutOfRangeError):
            log.read(-1)

    def test_max_records_limits(self):
        log = PartitionLog("t", 0)
        for i in range(10):
            log.append(rec(i))
        assert len(log.read(0, max_records=4)) == 4
