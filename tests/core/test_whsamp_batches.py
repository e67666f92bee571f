"""Tests for pair-wise sampling (``whsamp_batches``) — Algorithm 2's loop."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import ThetaStore
from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches
from repro.errors import SamplingError


def batch(substream, weight, values):
    return WeightedBatch(substream, weight, ColumnarBatch.single(substream, values))


class TestPairSemantics:
    def test_pairs_with_different_weights_stay_separate(self):
        """Same sub-stream, different W_in -> two output batches."""
        result = whsamp_batches(
            [batch("s", 1.0, range(10)), batch("s", 5.0, range(10))],
            100,
            rng=random.Random(1),
        )
        weights = sorted(b.weight for b in result)
        assert weights == [1.0, 5.0]  # both underfull: pass-through

    def test_same_weight_pairs_merge(self):
        """Same sub-stream, same W_in -> one reservoir, one batch."""
        result = whsamp_batches(
            [batch("s", 2.0, range(10)), batch("s", 2.0, range(10, 20))],
            100,
            rng=random.Random(2),
        )
        [merged] = result
        assert len(merged) == 20

    def test_count_invariant_per_group(self):
        """Eq. 8 holds for each (sub-stream, weight) group separately."""
        pairs = [
            batch("s", 1.5, range(100)),
            batch("s", 3.0, range(50)),
            batch("t", 1.0, range(200)),
        ]
        result = whsamp_batches(pairs, 30, rng=random.Random(3))
        theta = ThetaStore()
        theta.extend(result)
        per = theta.per_substream()
        assert per["s"].estimated_count == pytest.approx(1.5 * 100 + 3.0 * 50)
        assert per["t"].estimated_count == pytest.approx(200.0)

    def test_empty_input(self):
        assert whsamp_batches([], 10) == []

    def test_empty_batches_skipped(self):
        result = whsamp_batches(
            [batch("s", 1.0, []), batch("t", 1.0, [1.0])],
            10,
            rng=random.Random(4),
        )
        assert [b.substream for b in result] == ["t"]

    def test_sample_size_validated(self):
        with pytest.raises(SamplingError):
            whsamp_batches([batch("s", 1.0, [1.0])], 0)

    def test_sibling_weights_dont_bias_estimate(self):
        """The regression the pair fix addressed: different child
        weights for one sub-stream must not corrupt the weighted sum."""
        rng = random.Random(6)
        values_a = [rng.gauss(100, 10) for _ in range(1000)]
        values_b = [rng.gauss(100, 10) for _ in range(1000)]
        # Child A sampled at 1/2 (weight 2), child B at 1/10 (weight 10).
        pairs = [
            batch("s", 2.0, values_a[:500]),
            batch("s", 10.0, values_b[:100]),
        ]
        estimates = []
        for trial in range(100):
            result = whsamp_batches(pairs, 120, rng=random.Random(trial))
            estimates.append(
                sum(batch.estimated_sum for batch in result)
            )
        mean = sum(estimates) / len(estimates)
        expected = 2.0 * sum(values_a[:500]) + 10.0 * sum(values_b[:100])
        assert mean == pytest.approx(expected, rel=0.03)


pair_strategy = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.floats(min_value=0.5, max_value=50.0),
    st.lists(st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False), min_size=0, max_size=40),
)


@given(pairs=st.lists(pair_strategy, min_size=0, max_size=10),
       sample_size=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_property_group_count_invariant(pairs, sample_size, seed):
    """For every output batch: |sample| * W_out == |group| * W_in."""
    batches = [batch(name, weight, values) for name, weight, values in pairs]
    inputs: dict[tuple[str, float], int] = {}
    for name, weight, values in pairs:
        if values:
            inputs[(name, weight)] = inputs.get((name, weight), 0) + len(values)
    result = whsamp_batches(batches, sample_size, rng=random.Random(seed))
    recovered: dict[str, float] = {}
    for out in result:
        recovered[out.substream] = (
            recovered.get(out.substream, 0.0) + out.estimated_count
        )
    expected: dict[str, float] = {}
    for (name, weight), count in inputs.items():
        expected[name] = expected.get(name, 0.0) + weight * count
    assert set(recovered) == set(expected)
    for name, value in expected.items():
        assert recovered[name] == pytest.approx(value)


@given(pairs=st.lists(pair_strategy, min_size=1, max_size=10),
       sample_size=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_property_budget_respected(pairs, sample_size, seed):
    """Total sampled items never exceed max(budget, group count)."""
    batches = [batch(name, weight, values) for name, weight, values in pairs]
    groups = {
        (name, weight)
        for name, weight, values in pairs
        if values
    }
    result = whsamp_batches(batches, sample_size, rng=random.Random(seed))
    limit = max(sample_size, len(groups))  # min 1 slot per group
    assert sum(len(b) for b in result) <= limit
