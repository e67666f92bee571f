"""Unit tests for weight computation and the WeightMap."""

import math

import pytest

from repro.core.weights import WeightMap, local_weight, output_weight


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


class TestWeightMap:
    def test_default_weight_is_one(self):
        assert WeightMap().get("never-seen") == 1.0

    def test_get_never_inserts(self):
        wm = WeightMap()
        wm.get("never-seen")
        assert "never-seen" not in wm
        assert len(wm) == 0

    def test_update_and_get(self):
        wm = WeightMap()
        wm.update("a", 2.5)
        assert wm.get("a") == 2.5

    def test_stale_weight_persists(self):
        """Figure 3's rule: the prior weight applies in later intervals."""
        wm = WeightMap()
        wm.update("s", 1.5)
        # ... an interval passes with no weight update for "s" ...
        assert wm.get("s") == 1.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_and_non_finite_weights(self, bad):
        wm = WeightMap({"a": 2.0})
        with pytest.raises(ValueError):
            wm.update("a", bad)
        assert wm.get("a") == 2.0

    def test_merge_overwrites(self):
        wm = WeightMap({"a": 2.0, "b": 3.0})
        wm.merge({"b": 4.0, "c": 5.0})
        assert wm.as_dict() == {"a": 2.0, "b": 4.0, "c": 5.0}

    def test_merge_weightmap_instance(self):
        wm = WeightMap({"a": 2.0})
        wm.merge(WeightMap({"a": 7.0}))
        assert wm.get("a") == 7.0

    def test_merge_keeps_weights_the_other_map_lacks(self):
        """Figure 3's stale rule: a stratum absent from the fresh
        metadata keeps its last weight; the source map is untouched."""
        wm = WeightMap({"a": 2.0, "b": 3.0})
        fresh = WeightMap({"b": 6.0})
        wm.merge(fresh)
        assert wm.as_dict() == {"a": 2.0, "b": 6.0}
        assert fresh.as_dict() == {"b": 6.0}

    def test_copy_is_independent(self):
        wm = WeightMap({"a": 2.0})
        clone = wm.copy()
        clone.update("a", 9.0)
        assert wm.get("a") == 2.0

    def test_contains_and_len(self):
        wm = WeightMap({"a": 2.0})
        assert "a" in wm
        assert "b" not in wm
        assert len(wm) == 1

    @pytest.mark.parametrize("bad", [-2.0, math.nan, math.inf])
    def test_initial_mapping_validated(self, bad):
        with pytest.raises(ValueError):
            WeightMap({"a": bad})

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_merge_validates_incoming_weights(self, bad):
        wm = WeightMap({"a": 2.0})
        with pytest.raises(ValueError):
            wm.merge({"a": bad})
        assert wm.get("a") == 2.0

    def test_update_stores_a_float(self):
        wm = WeightMap()
        wm.update("a", 3)
        assert type(wm.get("a")) is float

    def test_items_is_a_snapshot(self):
        wm = WeightMap({"a": 2.0, "b": 3.0})
        seen = []
        for substream, weight in wm.items():
            wm.update(substream + "-next", weight)
            seen.append(substream)
        assert seen == ["a", "b"]
        assert len(wm) == 4

    def test_as_dict_is_a_copy(self):
        wm = WeightMap({"a": 2.0})
        wm.as_dict()["a"] = 9.0
        assert wm.get("a") == 2.0
