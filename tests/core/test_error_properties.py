"""Property-based tests for the error-bound machinery."""

import math

import numpy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import ColumnarBatch
from repro.core.error_bounds import (
    estimate_sum_with_error,
    sample_variance,
)
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch

batch_strategy = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.floats(min_value=1.0, max_value=100.0),
    st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
             min_size=1, max_size=30),
)


def build_theta(raw_batches):
    theta = ThetaStore()
    for substream, weight, values in raw_batches:
        theta.add(
            WeightedBatch(
                substream, weight, ColumnarBatch.single(substream, values)
            )
        )
    return theta


@given(raw=st.lists(batch_strategy, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_variance_and_error_never_negative(raw):
    theta = build_theta(raw)
    result = estimate_sum_with_error(theta)
    assert result.variance >= 0.0
    assert result.error >= 0.0
    assert not math.isnan(result.error)


@given(raw=st.lists(batch_strategy, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_error_monotone_in_confidence(raw):
    theta = build_theta(raw)
    errors = [
        estimate_sum_with_error(theta, confidence).error
        for confidence in (0.68, 0.95, 0.997)
    ]
    assert errors[0] <= errors[1] <= errors[2]


@given(raw=st.lists(batch_strategy, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_interval_always_contains_point_estimate(raw):
    theta = build_theta(raw)
    result = estimate_sum_with_error(theta)
    assert result.lower <= result.value <= result.upper


@given(raw=st.lists(batch_strategy, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_unsampled_batches_have_zero_error(raw):
    """Weight-1 batches mean the sample IS the population: FPC -> 0."""
    theta = ThetaStore()
    for substream, _weight, values in raw:
        theta.add(
            WeightedBatch(
                substream, 1.0, ColumnarBatch.single(substream, values)
            )
        )
    result = estimate_sum_with_error(theta)
    assert result.error <= 1e-6 * max(1.0, abs(result.value))


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), max_size=100))
def test_sample_variance_never_negative(values):
    assert sample_variance(values) >= 0.0


@given(values=st.lists(
    st.one_of(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e150, max_value=1e150, allow_nan=False),
        st.floats(min_value=-1e-150, max_value=1e-150, allow_nan=False),
        st.integers(min_value=-10**6, max_value=10**6).map(float),
    ),
    min_size=2, max_size=300,
))
@settings(max_examples=300, deadline=None)
def test_sample_variance_is_numpy_var_bit_for_bit(values):
    """Eq. 12 is numpy's two-pass ``var(ddof=1)``, to the last bit."""
    expected = float(numpy.var(numpy.asarray(values), ddof=1))
    assert sample_variance(values).hex() == expected.hex()
    column = numpy.asarray(values, dtype=numpy.float64)
    assert sample_variance(column).hex() == expected.hex()


@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                 allow_nan=False), min_size=2, max_size=50),
       shift=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_sample_variance_shift_invariant(values, shift):
    original = sample_variance(values)
    shifted = sample_variance([v + shift for v in values])
    assert math.isclose(original, shifted, rel_tol=1e-6, abs_tol=1e-5)
