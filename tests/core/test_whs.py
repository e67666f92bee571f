"""Unit tests for weighted hierarchical sampling (Algorithm 1)."""

import random

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.items import StreamItem
from repro.core.stratified import allocate_proportional
from repro.core.weights import WeightMap
from repro.core.whs import whsamp
from repro.errors import SamplingError


def make_items(substream, values, emitted_at=0.0):
    return [StreamItem(substream, float(v), emitted_at) for v in values]


class TestWhsamp:
    def test_empty_input_returns_empty_result(self):
        result = whsamp([], 10)
        assert result.batches == []
        assert result.sampled_count == 0

    def test_single_substream_overflow(self):
        items = make_items("a", range(100))
        result = whsamp(items, 10, rng=random.Random(1))
        assert result.sampled_count == 10
        assert result.weights.get("a") == pytest.approx(10.0)
        assert result.seen == {"a": 100}

    def test_single_substream_underflow_weight_one(self):
        items = make_items("a", range(5))
        result = whsamp(items, 10, rng=random.Random(2))
        assert result.sampled_count == 5
        assert result.weights.get("a") == 1.0

    def test_count_invariant_equation8(self):
        """W_out * sampled == W_in * seen for every sub-stream."""
        items = make_items("a", range(97)) + make_items("b", range(13))
        result = whsamp(items, 10, rng=random.Random(3))
        for batch in result.batches:
            assert batch.estimated_count == pytest.approx(
                result.seen[batch.substream]
            )

    def test_input_weights_compose(self):
        items = make_items("a", range(20))
        result = whsamp(items, 10, {"a": 2.5}, rng=random.Random(4))
        # c=20, N=10 -> w=2, W_out = 2.5 * 2 = 5.0
        assert result.weights.get("a") == pytest.approx(5.0)
        # Estimated count recovers W_in * c = 2.5 * 20 = 50 original items.
        assert result.batches[0].estimated_count == pytest.approx(50.0)

    def test_every_substream_represented(self):
        """Stratification: even a 2-item stratum appears in the sample."""
        items = make_items("big", range(10000)) + make_items("tiny", [1, 2])
        result = whsamp(items, 20, rng=random.Random(5))
        substreams = {batch.substream for batch in result.batches}
        assert substreams == {"big", "tiny"}

    def test_allocation_recorded(self):
        items = make_items("a", range(50)) + make_items("b", range(50))
        result = whsamp(items, 10, rng=random.Random(6))
        assert sum(result.allocation.values()) == 10

    def test_weightmap_input_not_mutated(self):
        wm = WeightMap({"a": 2.0})
        whsamp(make_items("a", range(100)), 10, wm, rng=random.Random(7))
        assert wm.get("a") == 2.0

    def test_invalid_sample_size(self):
        with pytest.raises(SamplingError):
            whsamp(make_items("a", [1]), 0)

    def test_proportional_policy_pluggable(self):
        items = make_items("a", range(90)) + make_items("b", range(10))
        result = whsamp(
            items, 10, policy=allocate_proportional, rng=random.Random(8)
        )
        assert result.allocation["a"] == 9
        assert result.allocation["b"] == 1

    def test_unsaturated_substream_passes_all_items(self):
        items = make_items("a", [7.0, 8.0])
        result = whsamp(items, 10, rng=random.Random(9))
        values = sorted(i.value for i in result.batches[0].items)
        assert values == [7.0, 8.0]


class TestListInputIsTheColumnarInput:
    """``whsamp`` normalises a ``StreamItem`` list to columns once, so a
    list and its ``from_items`` transpose are the same call."""

    def test_same_batches_for_a_seeded_rng(self):
        items = [
            StreamItem("abc"[i % 3], float(i), i / 100, 50 + i % 7)
            for i in range(300)
        ]
        items += make_items("d", range(5))  # passes through unsampled
        weights = {"a": 2.0, "c": 1.5}
        from_list = whsamp(items, 40, weights, rng=random.Random(11))
        from_columns = whsamp(
            ColumnarBatch.from_items(items), 40, weights,
            rng=random.Random(11),
        )
        assert from_list.sampled_count == 40
        assert [
            (b.substream, b.weight, b.items.to_items())
            for b in from_list.batches
        ] == [
            (b.substream, b.weight, b.items.to_items())
            for b in from_columns.batches
        ]
        assert from_list.seen == from_columns.seen
        assert from_list.allocation == from_columns.allocation
        assert dict(from_list.weights.items()) == dict(
            from_columns.weights.items()
        )
        assert all(isinstance(b.items, ColumnarBatch) for b in from_list.batches)


class TestCallerHeldWeights:
    """Figure 3's stale-weight rule over ``whsamp``.

    A node keeps the weights it *received* in a :class:`WeightMap` of
    its own and passes it to every interval's ``whsamp``; ``whsamp``
    copies it, so the node's output weights never feed back.
    """

    def test_stale_received_weight_applies_next_interval(self):
        """Figure 3 at node B: the *received* w=1.5 applies again.

        The node's own output weight (3.0 after interval v) must NOT
        feed back as the next interval's input weight — only weights
        received from downstream do.
        """
        rng = random.Random(10)
        received = WeightMap({"s": 1.5})
        # Interval v: items 5, 2 arrive; reservoir 1 -> w = 1.5 * 2 = 3.
        r1 = whsamp(make_items("s", [5, 2]), 1, received, rng=rng)
        assert r1.weights.get("s") == pytest.approx(3.0)
        assert received.get("s") == 1.5
        # Interval v+1: items 3, 4 arrive with no weight metadata. The
        # stale *received* weight 1.5 applies: w = 1.5 * 2 = 3.0.
        r2 = whsamp(make_items("s", [3, 4]), 1, received, rng=rng)
        assert r2.weights.get("s") == pytest.approx(3.0)

    def test_outputs_do_not_compound_across_intervals(self):
        """Raw items at a bottom node keep weight ~1/fraction forever."""
        rng = random.Random(12)
        received = WeightMap()
        for _ in range(20):
            result = whsamp(make_items("s", range(100)), 10, received, rng=rng)
            assert result.weights.get("s") == pytest.approx(10.0)
        assert len(received) == 0

    def test_count_invariant_end_to_end_two_layers(self):
        """Chain two nodes; root estimate recovers the bottom count."""
        rng = random.Random(11)
        original = make_items("s", range(200))
        r_bottom = whsamp(original, 10, WeightMap(), rng=rng)
        top_received = WeightMap()
        top_received.merge(r_bottom.weights)
        forwarded = [i for b in r_bottom.batches for i in b.items]
        r_top = whsamp(forwarded, 5, top_received, rng=rng)
        assert r_top.batches[0].estimated_count == pytest.approx(200.0)

    def test_a_substream_without_a_received_weight_starts_at_one(self):
        received = WeightMap({"s": 4.0})
        items = make_items("s", range(20)) + make_items("t", range(20))
        result = whsamp(items, 20, received, rng=random.Random(3))
        assert result.weights.get("s") == pytest.approx(4.0 * 2)
        assert result.weights.get("t") == pytest.approx(2.0)

    def test_a_fresh_received_weight_supersedes_the_stale_one(self):
        """Figure 3, interval v+2: new metadata replaces w = 1.5."""
        rng = random.Random(4)
        received = WeightMap({"s": 1.5})
        whsamp(make_items("s", [1, 2]), 1, received, rng=rng)
        received.merge({"s": 6.0})
        result = whsamp(make_items("s", [3, 4]), 1, received, rng=rng)
        assert result.weights.get("s") == pytest.approx(12.0)

    def test_a_plain_mapping_serves_as_received_weights(self):
        received = {"s": 2.5}
        result = whsamp(make_items("s", range(10)), 5, received,
                        rng=random.Random(5))
        assert result.weights.get("s") == pytest.approx(5.0)
        assert received == {"s": 2.5}

    def test_received_weight_scales_the_recovered_count(self):
        """Eq. 8 with W_in = 3: 100 arrivals stand for 300 originals."""
        result = whsamp(make_items("s", range(100)), 10, WeightMap({"s": 3.0}),
                        rng=random.Random(6))
        [batch] = result.batches
        assert batch.estimated_count == pytest.approx(300.0)


class TestMergeResults:
    """merge_results: the cross-shard union respects Eq. 8."""

    @staticmethod
    def run_shard(substream, values, budget, seed, weight=1.0):
        from repro.core.items import WeightedBatch
        from repro.core.whs import whsamp_batches

        return whsamp_batches(
            [WeightedBatch(substream, weight, make_items(substream, values))],
            budget,
            rng=random.Random(seed),
        )

    def test_union_preserves_count_recovery(self):
        from repro.core.whs import merge_results

        shards = [
            self.run_shard("s", range(40), 4, seed=1),
            self.run_shard("s", range(100, 160), 4, seed=2),
        ]
        merged = merge_results(shards)
        assert merged.seen == {"s": 100}
        assert merged.allocation == {"s": 8}
        recovered = sum(b.estimated_count for b in merged.batches)
        assert recovered == pytest.approx(100.0)

    def test_batches_concatenate_in_shard_order(self):
        from repro.core.whs import merge_results

        first = self.run_shard("s", range(10), 3, seed=3)
        second = self.run_shard("t", range(10), 3, seed=4)
        merged = merge_results([first, second])
        assert [b.substream for b in merged.batches] == ["s", "t"]
        assert merged.sampled_count == first.sampled_count + second.sampled_count

    def test_dominant_shard_wins_the_weight_map(self):
        from repro.core.whs import merge_results

        small = self.run_shard("s", range(8), 4, seed=5)    # weight 2.0
        large = self.run_shard("s", range(40), 4, seed=6)   # weight 10.0
        merged = merge_results([small, large])
        assert merged.weights.get("s") == large.weights.get("s")
        flipped = merge_results([large, small])
        assert flipped.weights.get("s") == large.weights.get("s")

    def test_empty_merge_is_empty(self):
        from repro.core.whs import merge_results

        merged = merge_results([])
        assert merged.batches == [] and merged.seen == {}
