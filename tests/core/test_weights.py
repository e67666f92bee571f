"""Unit tests for weight computation (Equations 1 and 2)."""

import math

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.core.weights import local_weight, output_weight


class TestLocalWeight:
    def test_overflow_scales_by_ratio(self):
        assert local_weight(seen=40, reservoir_size=10) == pytest.approx(4.0)

    def test_underflow_is_one(self):
        assert local_weight(seen=5, reservoir_size=10) == 1.0

    def test_exact_fit_is_one(self):
        assert local_weight(seen=10, reservoir_size=10) == 1.0

    def test_reservoir_must_be_positive(self):
        with pytest.raises(ValueError):
            local_weight(5, 0)

    @pytest.mark.parametrize("seen,size,expected", [
        (0, 5, 1.0), (1, 1, 1.0), (2, 1, 2.0), (6, 5, 1.2),
        (1000, 10, 100.0), (7, 3, 7 / 3),
    ])
    def test_equation_1_table(self, seen, size, expected):
        assert local_weight(seen, size) == pytest.approx(expected)


class TestOutputWeight:
    def test_paper_figure2_example(self):
        """Figure 2: W_in=3, 4 items into reservoir of 3 -> W_out = 3*4/3 = 4."""
        assert output_weight(3.0, seen=4, reservoir_size=3) == pytest.approx(4.0)

    def test_paper_figure2_underflow_example(self):
        """Figure 2: W_in=2, 2 items into reservoir of 3 -> W_out = 2."""
        assert output_weight(2.0, seen=2, reservoir_size=3) == pytest.approx(2.0)

    def test_paper_figure3_example(self):
        """Figure 3: w=1.5 then 2 items into reservoir of 1 -> w = 3."""
        assert output_weight(1.5, seen=2, reservoir_size=1) == pytest.approx(3.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_weight_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError):
            output_weight(bad, 5, 3)

    def test_composition_across_layers(self):
        """Weights compose multiplicatively along the upstream path."""
        w1 = output_weight(1.0, seen=6, reservoir_size=4)   # 1.5 (Fig. 3, node A)
        w2 = output_weight(w1, seen=2, reservoir_size=1)    # 3.0 (node B)
        assert w2 == pytest.approx(3.0)

    @pytest.mark.parametrize("w_in,seen,size,expected", [
        (1.0, 100, 10, 10.0), (2.5, 4, 4, 2.5), (2.5, 0, 4, 2.5),
        (0.5, 30, 10, 1.5),
    ])
    def test_equation_2_scales_the_input_weight(self, w_in, seen, size,
                                                expected):
        assert output_weight(w_in, seen, size) == pytest.approx(expected)


class TestBatchWeight:
    """The weight a pair carries is its W_in at the next node, so a pair
    refuses one that Eq. 2 could not take."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_and_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            WeightedBatch("s", bad, ColumnarBatch.single("s", [1.0]))
