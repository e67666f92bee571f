"""Property-based tests (hypothesis) for the core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnarBatch
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.core.reservoir import ReservoirSampler, SkipAheadReservoirSampler
from repro.core.stratified import (
    allocate_equal,
    allocate_fair_fill,
    allocate_proportional,
)
from repro.core.weights import output_weight
from repro.core.whs import whsamp_batches

# Strategy: a stream of (sub-stream, value) records over up to 5 strata.
substream_names = st.sampled_from(["a", "b", "c", "d", "e"])
record_strategy = st.tuples(
    substream_names,
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
)
stream_strategy = st.lists(record_strategy, min_size=0, max_size=300)


def strata(stream):
    """The stream's values per sub-stream, in first-arrival order."""
    out: dict[str, list[float]] = {}
    for substream, value in stream:
        out.setdefault(substream, []).append(value)
    return out


def arrivals(stream, weights=None):
    """A node's interval: one pair per stratum at its input weight."""
    weights = weights or {}
    return [
        WeightedBatch(
            substream, weights.get(substream, 1.0),
            ColumnarBatch.single(substream, values),
        )
        for substream, values in strata(stream).items()
    ]


@given(stream=stream_strategy, sample_size=st.integers(1, 100),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_whsamp_count_invariant(stream, sample_size, seed):
    """Eq. 8: W_out * |sample| == W_in * c for every sub-stream, always."""
    seen = {name: len(values) for name, values in strata(stream).items()}
    out = whsamp_batches(arrivals(stream), sample_size, rng=random.Random(seed))
    for batch in out:
        count = seen[batch.substream]
        assert abs(batch.estimated_count - count) < 1e-6 * max(1, count)


@given(stream=stream_strategy, sample_size=st.integers(1, 100),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_whsamp_sample_within_budget_per_stratum(stream, sample_size, seed):
    """No stratum ever exceeds its allocated reservoir."""
    out = whsamp_batches(arrivals(stream), sample_size, rng=random.Random(seed))
    if not out:
        return
    allocation = allocate_fair_fill(
        sample_size,
        {(name, 1.0): len(values) for name, values in strata(stream).items()},
    )
    for batch in out:
        assert len(batch) <= allocation[(batch.substream, 1.0)]


@given(stream=stream_strategy, sample_size=st.integers(1, 100),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_whsamp_covers_every_substream(stream, sample_size, seed):
    """Stratification guarantee: every arriving stratum is represented."""
    out = whsamp_batches(arrivals(stream), sample_size, rng=random.Random(seed))
    sampled = {batch.substream for batch in out if len(batch) > 0}
    assert sampled == {substream for substream, _value in stream}


@given(stream=stream_strategy, sample_size=st.integers(1, 100),
       seed=st.integers(0, 2**32 - 1),
       weights=st.dictionaries(substream_names,
                               st.floats(min_value=0.1, max_value=100.0),
                               max_size=5))
@settings(max_examples=100, deadline=None)
def test_whsamp_weights_monotone_nondecreasing(stream, sample_size, seed,
                                               weights):
    """Output weights never fall below input weights (w_i >= 1)."""
    out = whsamp_batches(arrivals(stream, weights), sample_size,
                         rng=random.Random(seed))
    for batch in out:
        w_in = weights.get(batch.substream, 1.0)
        assert batch.weight >= w_in - 1e-12


@given(seen=st.integers(0, 10_000), capacity=st.integers(1, 1_000),
       w_in=st.floats(min_value=1e-3, max_value=1e6))
def test_output_weight_count_identity(seen, capacity, w_in):
    """Closed-form check of the proof in §III-C: W_out * c~ == W_in * c."""
    sampled = min(seen, capacity)
    w_out = output_weight(w_in, seen, capacity)
    assert abs(w_out * sampled - w_in * seen) <= 1e-9 * max(1.0, w_in * seen)


@given(stream=st.lists(st.integers(), min_size=0, max_size=500),
       capacity=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_reservoir_size_and_membership(stream, capacity, seed):
    sampler = ReservoirSampler(capacity, random.Random(seed))
    sampler.extend(stream)
    sample = sampler.sample()
    assert len(sample) == min(len(stream), capacity)
    stream_counts = {}
    for x in stream:
        stream_counts[x] = stream_counts.get(x, 0) + 1
    sample_counts = {}
    for x in sample:
        sample_counts[x] = sample_counts.get(x, 0) + 1
    for value, count in sample_counts.items():
        assert count <= stream_counts.get(value, 0)


@given(stream=st.lists(st.integers(), min_size=0, max_size=500),
       capacity=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_skip_ahead_size_and_membership(stream, capacity, seed):
    sampler = SkipAheadReservoirSampler(capacity, random.Random(seed))
    sampler.extend(stream)
    sample = sampler.sample()
    assert len(sample) == min(len(stream), capacity)
    assert set(sample) <= set(stream) | set()


@given(budget=st.integers(1, 500),
       counts=st.dictionaries(substream_names, st.integers(0, 10_000),
                              min_size=1, max_size=5))
def test_equal_allocation_invariants(budget, counts):
    alloc = allocate_equal(budget, counts)
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())
    assert sum(alloc.values()) >= min(budget, len(counts))


@given(budget=st.integers(1, 500),
       counts=st.dictionaries(substream_names, st.integers(0, 10_000),
                              min_size=1, max_size=5))
def test_proportional_allocation_invariants(budget, counts):
    alloc = allocate_proportional(budget, counts)
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())


@given(
    batches=st.lists(
        st.tuples(
            substream_names,
            st.floats(min_value=0.1, max_value=100.0),
            st.lists(st.floats(min_value=-1e3, max_value=1e3,
                               allow_nan=False), min_size=0, max_size=20),
        ),
        min_size=0, max_size=20,
    )
)
def test_theta_sum_is_linear(batches):
    """SUM over the store equals the sum of per-batch contributions."""
    theta = ThetaStore()
    expected = 0.0
    for substream, weight, values in batches:
        batch = WeightedBatch(
            substream, weight, ColumnarBatch.single(substream, values)
        )
        theta.add(batch)
        expected += weight * sum(values)
    estimate = sum(batch.estimated_sum for batch in theta.batches)
    assert abs(estimate - expected) <= 1e-6 * max(1.0, abs(expected))
