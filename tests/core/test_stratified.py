"""Unit tests for stratum budget allocation policies."""

import pytest

from repro.core.stratified import allocate_equal, allocate_proportional
from repro.errors import SamplingError


class TestEqualAllocation:
    def test_even_split(self):
        alloc = allocate_equal(12, {"a": 100, "b": 100, "c": 100})
        assert alloc == {"a": 4, "b": 4, "c": 4}

    def test_remainder_goes_to_largest(self):
        alloc = allocate_equal(10, {"small": 10, "big": 1000, "mid": 100})
        assert sum(alloc.values()) == 10
        assert alloc["big"] == 4  # base 3 + remainder slot
        assert alloc["small"] == 3

    def test_minimum_one_slot_each(self):
        alloc = allocate_equal(2, {"a": 5, "b": 5, "c": 5})
        assert all(v >= 1 for v in alloc.values())

    def test_single_stratum_gets_everything(self):
        assert allocate_equal(7, {"only": 3}) == {"only": 7}

    def test_validation(self):
        with pytest.raises(SamplingError):
            allocate_equal(0, {"a": 1})
        with pytest.raises(SamplingError):
            allocate_equal(5, {})
        with pytest.raises(SamplingError):
            allocate_equal(5, {"a": -1})


class TestProportionalAllocation:
    def test_proportional_split(self):
        alloc = allocate_proportional(10, {"a": 900, "b": 100})
        assert sum(alloc.values()) == 10
        assert alloc["a"] == 9
        assert alloc["b"] == 1

    def test_floor_of_one(self):
        alloc = allocate_proportional(10, {"a": 10000, "b": 1})
        assert alloc["b"] >= 1

    def test_zero_counts_fall_back_to_equal(self):
        alloc = allocate_proportional(6, {"a": 0, "b": 0})
        assert alloc == {"a": 3, "b": 3}

    def test_total_not_below_budget_when_feasible(self):
        alloc = allocate_proportional(100, {"a": 10, "b": 20, "c": 70})
        assert sum(alloc.values()) >= 100
