"""Property-based tests (hypothesis) for the cost/allocation layer.

The invariants the adaptive budget controllers lean on (the fraction
rule's own properties are in ``tests/system/test_adaptive_controller.py``):

* every ``getSampleSize`` policy conserves the budget: totals add up
  to ``sample_size`` whenever the budget covers the stratum count
  (for the cap-aware fills, to ``min(sample_size, sum(max(1, c_i)))``),
  with the one-slot floor intact;
* :func:`neyman_factors` yields positive mean-1 tilt factors whose
  order follows the variances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.cost import neyman_factors
from repro.core.stratified import (
    allocate_equal,
    allocate_fair_fill,
    allocate_proportional,
    allocate_weighted,
)
from repro.errors import ConfigurationError

substream_names = st.sampled_from(["a", "b", "c", "d", "e"])
counts_strategy = st.dictionaries(
    substream_names, st.integers(0, 10_000), min_size=1, max_size=5
)


# -------------------------------------------------------------- allocation


@given(budget=st.integers(1, 500), counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_equal_allocation_conserves(budget, counts):
    alloc = allocate_equal(budget, counts)
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())
    if budget >= len(counts):
        assert sum(alloc.values()) == budget


@given(budget=st.integers(1, 500), counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_proportional_allocation_conserves(budget, counts):
    alloc = allocate_proportional(budget, counts)
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())
    if budget >= len(counts):
        assert sum(alloc.values()) == budget


@given(budget=st.integers(1, 500), counts=counts_strategy)
@settings(max_examples=200, deadline=None)
def test_fair_fill_conserves_up_to_caps(budget, counts):
    """Fair fill spends the whole budget unless the caps run out first."""
    alloc = allocate_fair_fill(budget, counts)
    caps = {s: max(1, c) for s, c in counts.items()}
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())
    if budget >= len(counts):
        assert sum(alloc.values()) == min(budget, sum(caps.values()))


@given(budget=st.integers(1, 500), counts=counts_strategy,
       weights=st.dictionaries(
           substream_names,
           st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False),
           max_size=5,
       ))
@settings(max_examples=300, deadline=None)
def test_weighted_allocation_conserves_up_to_caps(budget, counts, weights):
    """The weighted fill keeps every fair-fill conservation guarantee.

    This is the policy the ``variance_aware`` controller installs with
    arbitrary count*deviation weights, so it must conserve the total
    (budget moves, it is never bought or lost), respect the one-slot
    floor, and never allocate a stratum more than it can fill.
    """
    alloc = allocate_weighted(budget, counts, weights)
    caps = {s: max(1, c) for s, c in counts.items()}
    assert set(alloc) == set(counts)
    assert all(v >= 1 for v in alloc.values())
    assert all(alloc[s] <= caps[s] for s in alloc)
    if budget >= len(counts):
        assert sum(alloc.values()) == min(budget, sum(caps.values()))


@given(budget=st.integers(1, 500), counts=counts_strategy)
@settings(max_examples=100, deadline=None)
def test_weighted_flat_weights_spend_like_fair_fill(budget, counts):
    """Neutral (all-1) weights spend exactly what fair fill spends."""
    flat = allocate_weighted(budget, counts, {})
    fair = allocate_fair_fill(budget, counts)
    assert sum(flat.values()) == sum(fair.values())


# ----------------------------------------------------------------- neyman


@given(variances=st.dictionaries(
    substream_names,
    st.floats(min_value=0.0, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5,
))
@settings(max_examples=200, deadline=None)
def test_neyman_factors_positive_mean_one(variances):
    factors = neyman_factors(variances)
    assert set(factors) == set(variances)
    assert all(f > 0 for f in factors.values())
    mean = sum(factors.values()) / len(factors)
    assert mean == pytest.approx(1.0)


@given(variances=st.dictionaries(
    substream_names,
    st.floats(min_value=1e-9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=5,
))
@settings(max_examples=200, deadline=None)
def test_neyman_factors_order_follows_variance(variances):
    """Higher variance never gets a smaller deviation factor."""
    factors = neyman_factors(variances)
    ranked = sorted(variances, key=variances.get)
    for lower, higher in zip(ranked, ranked[1:]):
        assert factors[lower] <= factors[higher] + 1e-12


def test_neyman_factors_all_zero_is_neutral():
    assert neyman_factors({"a": 0.0, "b": 0.0}) == {"a": 1.0, "b": 1.0}


def test_neyman_factors_zero_stratum_gets_floor_not_zero():
    factors = neyman_factors({"quiet": 0.0, "loud": 100.0})
    assert factors["quiet"] > 0
    assert factors["quiet"] <= factors["loud"]


def test_neyman_factors_negative_variance_rejected():
    with pytest.raises(ConfigurationError):
        neyman_factors({"a": -1.0})
