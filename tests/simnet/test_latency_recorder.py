"""``LatencyRecorder``: column recording against the per-record loop.

The reference below is the recorder this repo shipped before samples
moved into float64 chunks — one boxed float per record. The count must
agree with it exactly; the mean may differ by summation order only.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.simnet.stats import LatencyRecorder


class PerRecordReference:
    """The pre-columnar recorder, kept as the loop version."""

    def __init__(self):
        self.samples = []

    def record(self, emitted_at, delivered_at):
        assert delivered_at >= emitted_at
        self.samples.append(delivered_at - emitted_at)


def deliveries(seed=5, count=40):
    """Seeded ``(emission column, delivery time)`` pairs of mixed sizes."""
    rng = random.Random(seed)
    clock = 0.0
    out = []
    for _ in range(count):
        clock += rng.random()
        size = rng.choice([1, 2, 7, 300])
        out.append(([clock - rng.random() * 3 for _ in range(size)], clock))
    return out


class TestColumnEqualsPerRecord:
    def test_count_exact_mean_close(self):
        recorder, reference = LatencyRecorder(), PerRecordReference()
        for column, delivered_at in deliveries():
            recorder.record_column(column, delivered_at)
            for emitted_at in column:
                reference.record(emitted_at, delivered_at)
        assert recorder.count == len(reference.samples)
        mean = sum(reference.samples) / len(reference.samples)
        assert recorder.mean() == pytest.approx(mean, rel=1e-12)

    def test_length_one_columns(self):
        recorder = LatencyRecorder()
        recorder.record_column([0.0], 1.0)
        recorder.record_column((0.0,), 3.0)
        assert recorder.count == 2
        assert recorder.mean() == 2.0

    def test_results_are_plain_floats(self):
        recorder = LatencyRecorder()
        recorder.record_column([0.0, 0.5], 1.0)
        assert type(recorder.mean()) is float

    def test_empty_column_records_nothing(self):
        recorder = LatencyRecorder()
        recorder.record_column([], 1.0)
        assert recorder.count == 0
        with pytest.raises(SimulationError):
            recorder.mean()


class TestValidation:
    def test_one_late_timestamp_rejects_the_column(self):
        recorder = LatencyRecorder()
        with pytest.raises(SimulationError, match="precedes emission at 2.5"):
            recorder.record_column([0.1, 2.5, 0.3], 2.0)
        assert recorder.count == 0

    def test_a_length_one_column_raises_the_same_error(self):
        with pytest.raises(SimulationError, match="precedes emission at 5.0"):
            LatencyRecorder().record_column([5.0], 1.0)

    def test_empty_recorder(self):
        with pytest.raises(SimulationError, match="no latency samples"):
            LatencyRecorder().mean()


class TestConstantState:
    def test_state_is_two_scalars_after_any_number_of_records(self):
        recorder = LatencyRecorder()
        for column, delivered_at in deliveries(count=200):
            recorder.record_column(column, delivered_at)
        assert LatencyRecorder.__slots__ == ("_sum", "count")
        assert type(recorder._sum) is float
        assert type(recorder.count) is int
        assert recorder.count == sum(
            len(column) for column, _ in deliveries(count=200)
        )

    def test_a_record_after_a_read_is_counted(self):
        recorder = LatencyRecorder()
        recorder.record_column([0.0, 0.0], 2.0)
        assert recorder.mean() == 2.0
        recorder.record_column([0.0], 8.0)
        assert recorder.count == 3
        assert recorder.mean() == 4.0

    def test_large_times_do_not_cancel(self):
        """Per-record differences keep a 1 us latency exact at t = 1e9 s,
        where ``n * t - sum(stamps)`` would lose it to rounding."""
        recorder = LatencyRecorder()
        start = 1e9
        stamps = [start + i * 2.0**-20 for i in range(1000)]
        recorder.record_column(stamps, stamps[-1] + 2.0**-20)
        expected = sum(stamps[-1] + 2.0**-20 - t for t in stamps) / 1000
        assert recorder.mean() == pytest.approx(expected, rel=1e-12)
