"""Unit tests for reservoir sampling primitives."""

import random
from collections import Counter

import pytest

from repro.core.reservoir import ReservoirSampler, SkipAheadReservoirSampler
from repro.errors import SamplingError


class TestReservoirSampler:
    def test_keeps_everything_below_capacity(self):
        sampler = ReservoirSampler(10, random.Random(1))
        sampler.extend(range(7))
        assert sorted(sampler.sample()) == list(range(7))
        assert not sampler.is_saturated

    def test_never_exceeds_capacity(self):
        sampler = ReservoirSampler(5, random.Random(2))
        sampler.extend(range(1000))
        assert len(sampler) == 5
        assert sampler.is_saturated

    def test_sample_is_subset_of_stream(self):
        sampler = ReservoirSampler(8, random.Random(3))
        stream = list(range(200))
        sampler.extend(stream)
        assert set(sampler.sample()) <= set(stream)

    def test_seen_counts_offers(self):
        sampler = ReservoirSampler(3, random.Random(4))
        sampler.extend(range(42))
        assert sampler.seen == 42

    def test_reset_clears_state(self):
        sampler = ReservoirSampler(3, random.Random(5))
        sampler.extend(range(10))
        sampler.reset()
        assert sampler.seen == 0
        assert len(sampler) == 0

    def test_saturation_starts_past_capacity(self):
        sampler = ReservoirSampler(4, random.Random(8))
        sampler.extend(range(4))
        assert sampler.capacity == 4 and not sampler.is_saturated
        sampler.offer(4)
        assert sampler.is_saturated and len(sampler) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(SamplingError):
            ReservoirSampler(0)
        with pytest.raises(SamplingError):
            ReservoirSampler(-3)

    def test_uniformity_chi_square_like(self):
        """Every item should land in the reservoir ~equally often."""
        capacity, stream_len, trials = 5, 25, 4000
        counts = Counter()
        rng = random.Random(6)
        for _ in range(trials):
            sampler = ReservoirSampler(capacity, rng)
            sampler.extend(range(stream_len))
            counts.update(sampler.sample())
        expected = trials * capacity / stream_len
        for item in range(stream_len):
            assert counts[item] == pytest.approx(expected, rel=0.15)

    def test_sample_returns_copy(self):
        sampler = ReservoirSampler(3, random.Random(7))
        sampler.extend(range(3))
        snapshot = sampler.sample()
        snapshot.append(99)
        assert len(sampler.sample()) == 3


class TestSkipAheadReservoirSampler:
    def test_never_exceeds_capacity(self):
        sampler = SkipAheadReservoirSampler(7, random.Random(8))
        sampler.extend(range(5000))
        assert len(sampler) == 7
        assert sampler.seen == 5000

    def test_keeps_everything_below_capacity(self):
        sampler = SkipAheadReservoirSampler(10, random.Random(9))
        sampler.extend(range(4))
        assert sorted(sampler.sample()) == [0, 1, 2, 3]

    def test_reset_clears_skip_state(self):
        sampler = SkipAheadReservoirSampler(4, random.Random(10))
        sampler.extend(range(100))
        sampler.reset()
        sampler.extend(range(4))
        assert sorted(sampler.sample()) == [0, 1, 2, 3]

    def test_approximate_uniformity(self):
        """Skip-ahead must match Algorithm R's marginal probabilities."""
        capacity, stream_len, trials = 4, 40, 6000
        counts = Counter()
        rng = random.Random(11)
        for _ in range(trials):
            sampler = SkipAheadReservoirSampler(capacity, rng)
            sampler.extend(range(stream_len))
            counts.update(sampler.sample())
        expected = trials * capacity / stream_len
        for item in range(stream_len):
            assert counts[item] == pytest.approx(expected, rel=0.25)

    def test_late_items_still_selected(self):
        """The tail of a long stream must not be starved by skipping."""
        rng = random.Random(12)
        tail_hits = 0
        for _ in range(500):
            sampler = SkipAheadReservoirSampler(10, rng)
            sampler.extend(range(1000))
            tail_hits += sum(1 for x in sampler.sample() if x >= 900)
        # Expected hits: 500 trials * 10 slots * 100/1000 = 500.
        assert 300 < tail_hits < 700
