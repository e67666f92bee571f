"""``LatencyRecorder``: column recording against the per-record loop.

The reference below is the recorder this repo shipped before samples
moved into float64 chunks — one boxed float per record, re-sorted on
every percentile. Everything but the mean must agree with it exactly;
the mean may differ by summation order only.
"""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.simnet import stats
from repro.simnet.stats import LatencyRecorder

QUANTILES = [0, 0.001, 1, 25, 50, 75, 90, 95, 99, 99.999, 100]


class PerRecordReference:
    """The pre-columnar recorder, kept as the loop version."""

    def __init__(self):
        self.samples = []

    def record(self, emitted_at, delivered_at):
        assert delivered_at >= emitted_at
        self.samples.append(delivered_at - emitted_at)

    def percentile(self, q):
        ordered = sorted(self.samples)
        return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


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
    def test_count_max_percentiles_exact_mean_close(self):
        recorder, reference = LatencyRecorder(), PerRecordReference()
        for column, delivered_at in deliveries():
            recorder.record_column(column, delivered_at)
            for emitted_at in column:
                reference.record(emitted_at, delivered_at)
        assert recorder.count == len(reference.samples)
        assert recorder.max() == max(reference.samples)
        for q in QUANTILES:
            assert recorder.percentile(q) == reference.percentile(q), q
        mean = sum(reference.samples) / len(reference.samples)
        assert recorder.mean() == pytest.approx(mean, rel=1e-12)

    def test_record_is_the_length_one_column(self):
        by_record, by_column = LatencyRecorder(), LatencyRecorder()
        for column, delivered_at in deliveries(seed=9, count=10):
            by_column.record_column(column, delivered_at)
            for emitted_at in column:
                by_record.record(emitted_at, delivered_at)
        assert by_record.count == by_column.count
        assert by_record.max() == by_column.max()
        assert [by_record.percentile(q) for q in QUANTILES] == [
            by_column.percentile(q) for q in QUANTILES
        ]

    def test_results_are_plain_floats(self):
        recorder = LatencyRecorder()
        recorder.record_column([0.0, 0.5], 1.0)
        for value in (recorder.mean(), recorder.max(), recorder.percentile(50)):
            assert type(value) is float

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

    def test_per_record_call_raises_the_same_error(self):
        with pytest.raises(SimulationError, match="precedes emission at 5.0"):
            LatencyRecorder().record(5.0, 1.0)

    def test_empty_recorder_and_bad_quantile(self):
        recorder = LatencyRecorder()
        for read in (recorder.mean, recorder.max, lambda: recorder.percentile(50)):
            with pytest.raises(SimulationError, match="no latency samples"):
                read()
        recorder.record(0.0, 1.0)
        for q in (-0.1, 100.1):
            with pytest.raises(SimulationError, match=r"\[0, 100\]"):
                recorder.percentile(q)


class TestPercentileSortsOnce:
    @pytest.fixture
    def sorts(self, monkeypatch):
        """Count the sorts the recorder performs."""
        calls = []
        real_sort = stats._np.sort

        def counting_sort(values):
            calls.append(len(values))
            return real_sort(values)

        monkeypatch.setattr(stats._np, "sort", counting_sort)
        return calls

    def test_a_p50_p95_p99_report_sorts_once(self, sorts):
        recorder = LatencyRecorder()
        for column, delivered_at in deliveries():
            recorder.record_column(column, delivered_at)
        for q in (50, 95, 99):
            recorder.percentile(q)
        assert sorts == [recorder.count]

    def test_a_record_invalidates_the_order(self, sorts):
        recorder = LatencyRecorder()
        recorder.record_column([0.0, 0.0], 2.0)
        assert recorder.percentile(100) == 2.0
        recorder.record(0.0, 9.0)
        assert recorder.percentile(100) == 9.0
        assert sorts == [2, 3]
