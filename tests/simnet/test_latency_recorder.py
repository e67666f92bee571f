"""``LatencyRecorder``: column recording against the per-record loop.

The reference below is the recorder this repo shipped before samples
moved into float64 chunks — one boxed float per record. The count must
agree with it exactly; the mean may differ by summation order only.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.simnet import stats
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


class TestMeanConsolidatesOnce:
    @pytest.fixture
    def concatenations(self, monkeypatch):
        """Count the concatenations the recorder performs."""
        calls = []
        real_concatenate = stats._np.concatenate

        def counting_concatenate(chunks):
            calls.append(len(chunks))
            return real_concatenate(chunks)

        monkeypatch.setattr(stats._np, "concatenate", counting_concatenate)
        return calls

    def test_repeated_reads_concatenate_once(self, concatenations):
        recorder = LatencyRecorder()
        for column, delivered_at in deliveries(count=10):
            recorder.record_column(column, delivered_at)
        first = recorder.mean()
        assert recorder.mean() == first
        assert recorder.count == sum(
            len(column) for column, _ in deliveries(count=10)
        )
        assert concatenations == [10]

    def test_a_record_after_a_read_is_counted(self, concatenations):
        recorder = LatencyRecorder()
        recorder.record_column([0.0, 0.0], 2.0)
        assert recorder.mean() == 2.0
        recorder.record_column([0.0], 8.0)
        assert recorder.count == 3
        assert recorder.mean() == 4.0
        assert concatenations == [2]
