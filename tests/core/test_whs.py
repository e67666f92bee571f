"""Unit tests for weighted hierarchical sampling (Algorithm 1)."""

import random

import pytest

from repro.core.fastpath import make_generator
from repro.core.items import WeightedBatch
from repro.core.stratified import allocate_fair_fill, allocate_proportional
from repro.core.whs import whsamp_batches
from repro.errors import SamplingError


class TestWhsamp:
    def test_empty_input_returns_no_batches(self):
        assert whsamp_batches([], 10) == []

    def test_single_substream_overflow(self, fresh):
        [batch] = whsamp_batches([fresh("a", range(100))], 10,
                                 rng=random.Random(1))
        assert len(batch) == 10
        assert batch.weight == pytest.approx(10.0)

    def test_single_substream_underflow_weight_one(self, fresh):
        [batch] = whsamp_batches([fresh("a", range(5))], 10,
                                 rng=random.Random(2))
        assert len(batch) == 5
        assert batch.weight == 1.0

    def test_count_invariant_equation8(self, fresh):
        """W_out * sampled == W_in * seen for every sub-stream."""
        seen = {"a": 97, "b": 13}
        out = whsamp_batches(
            [fresh(name, range(count)) for name, count in seen.items()], 10,
            rng=random.Random(3),
        )
        for batch in out:
            assert batch.estimated_count == pytest.approx(seen[batch.substream])

    def test_input_weights_compose(self, columns):
        """Eq. 2 with W_in = 2.5: c=20, N=10 -> W_out = 2.5 * 2 = 5."""
        [batch] = whsamp_batches(
            [WeightedBatch("a", 2.5, columns("a", range(20)))], 10,
            rng=random.Random(4),
        )
        assert batch.weight == pytest.approx(5.0)
        # Estimated count recovers W_in * c = 2.5 * 20 = 50 original items.
        assert batch.estimated_count == pytest.approx(50.0)

    def test_every_substream_represented(self, fresh):
        """Stratification: even a 2-item stratum appears in the sample."""
        out = whsamp_batches([fresh("big", range(10000)), fresh("tiny", [1, 2])],
                             20, rng=random.Random(5))
        assert {batch.substream for batch in out} == {"big", "tiny"}

    def test_overflowing_strata_fill_the_budget(self, fresh):
        out = whsamp_batches([fresh("a", range(50)), fresh("b", range(50))],
                             10, rng=random.Random(6))
        assert sum(len(b) for b in out) == 10

    def test_allocation_recorded(self, fresh):
        """Each overflowing stratum keeps exactly its getSampleSize share."""
        seen = {"a": 70, "b": 25, "c": 5}
        out = whsamp_batches(
            [fresh(name, range(count)) for name, count in seen.items()], 30,
            rng=random.Random(6),
        )
        allocation = allocate_fair_fill(30, seen)
        assert {b.substream: len(b) for b in out} == {
            name: min(count, allocation[name]) for name, count in seen.items()
        }

    def test_input_batches_not_mutated(self, columns):
        payload = columns("a", range(100))
        pair = WeightedBatch("a", 2.0, payload)
        whsamp_batches([pair], 10, rng=random.Random(7))
        assert pair.weight == 2.0
        assert pair.items is payload
        assert payload.values.tolist() == [float(v) for v in range(100)]

    @pytest.mark.parametrize("w_in,count,budget", [
        (1.0, 100, 10), (1.0, 7, 3), (2.5, 40, 40), (2.5, 41, 40),
        (0.5, 1000, 1), (3.0, 5, 50),
    ])
    def test_equation_8_table(self, columns, w_in, count, budget):
        """W_out * sampled == W_in * arrivals, over- and underfull."""
        [batch] = whsamp_batches(
            [WeightedBatch("s", w_in, columns("s", range(count)))], budget,
            rng=random.Random(count),
        )
        assert len(batch) == min(count, budget)
        assert batch.estimated_count == pytest.approx(w_in * count)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_invalid_sample_size(self, fresh, budget):
        with pytest.raises(SamplingError):
            whsamp_batches([fresh("a", [1])], budget)

    def test_proportional_policy_pluggable(self, fresh):
        out = whsamp_batches(
            [fresh("a", range(90)), fresh("b", range(10))], 10,
            policy=allocate_proportional, rng=random.Random(8),
        )
        assert {b.substream: len(b) for b in out} == {"a": 9, "b": 1}

    def test_unsaturated_substream_passes_all_items(self, fresh):
        [batch] = whsamp_batches([fresh("a", [7.0, 8.0])], 10,
                                 rng=random.Random(9))
        assert sorted(batch.items.values.tolist()) == [7.0, 8.0]


class TestSeededDraws:
    def test_same_batches_for_a_seeded_rng(self, fresh):
        arrivals = [fresh("a", range(300)), fresh("b", range(90)),
                    fresh("d", range(5))]  # d passes through unsampled

        def close(**entropy):
            return [
                (b.substream, b.weight, b.items.values.tolist())
                for b in whsamp_batches(arrivals, 40, **entropy)
            ]

        first = close(rng=random.Random(11))
        assert first == close(rng=random.Random(11))
        assert first == close(gen=make_generator(random.Random(11)))
        assert first != close(rng=random.Random(12))

    def test_a_passthrough_interval_draws_no_entropy(self, fresh):
        gen = make_generator(random.Random(13))
        state = gen.bit_generator.state
        whsamp_batches([fresh("a", range(5))], 10, gen=gen)
        assert gen.bit_generator.state == state


def node_close(received, arrivals, budget, rng):
    """A node's interval under Figure 3's rule, with the received
    weights held by the caller: each sub-stream's arrivals go in at the
    weight last received for it, or 1 if none ever was."""
    return whsamp_batches(
        [
            WeightedBatch(name, received.get(name, 1.0), payload)
            for name, payload in arrivals.items()
        ],
        budget, rng=rng,
    )


class TestCallerHeldWeights:
    """Figure 3's stale-weight rule, kept by the node itself.

    ``whsamp_batches`` holds no weight state: a node keeps the weights
    it *received* and sends each interval's arrivals in at them, so its
    own output weights never feed back.
    """

    def test_stale_received_weight_applies_next_interval(self, columns):
        """Each sub-stream keeps its own received weight, interval after
        interval, whatever the node output for it before."""
        rng = random.Random(10)
        received = {"s": 1.5, "t": 2.0}
        for count in (40, 10, 25):
            arrivals = {"s": count, "t": 2 * count}
            out = node_close(
                received,
                {name: columns(name, range(n)) for name, n in arrivals.items()},
                20, rng,
            )
            assert len(out) == 2
            for batch in out:
                name = batch.substream
                assert batch.estimated_count == pytest.approx(
                    received[name] * arrivals[name]
                )
        assert received == {"s": 1.5, "t": 2.0}

    def test_outputs_do_not_compound_across_intervals(self, columns):
        """Raw items at a bottom node keep weight 1/fraction forever."""
        rng = random.Random(12)
        received = {}
        for _ in range(20):
            [batch] = node_close(received, {"s": columns("s", range(100))},
                                 10, rng)
            assert batch.weight == pytest.approx(10.0)
        assert received == {}

    def test_count_invariant_end_to_end_two_layers(self, columns):
        """Chain two nodes; the top's estimate recovers the bottom count."""
        rng = random.Random(11)
        [bottom] = node_close({}, {"s": columns("s", range(200))}, 10, rng)
        top_received = {bottom.substream: bottom.weight}
        [top] = node_close(top_received, {"s": bottom.items}, 5, rng)
        assert top.estimated_count == pytest.approx(200.0)

    def test_a_substream_without_a_received_weight_starts_at_one(
        self, columns
    ):
        out = node_close(
            {"s": 4.0},
            {"s": columns("s", range(20)), "t": columns("t", range(20))},
            20, random.Random(3),
        )
        weights = {b.substream: b.weight for b in out}
        assert weights["s"] == pytest.approx(4.0 * 2)
        assert weights["t"] == pytest.approx(2.0)

    def test_a_fresh_received_weight_supersedes_the_stale_one(self, columns):
        """Figure 3, interval v+2: new metadata replaces w = 1.5."""
        rng = random.Random(4)
        received = {"s": 1.5}
        node_close(received, {"s": columns("s", [1, 2])}, 1, rng)
        received["s"] = 6.0
        [batch] = node_close(received, {"s": columns("s", [3, 4])}, 1, rng)
        assert batch.weight == pytest.approx(12.0)

    def test_a_received_weight_without_arrivals_forwards_nothing(
        self, columns
    ):
        received = {"s": 2.5, "t": 4.0}
        out = node_close(received, {"s": columns("s", range(10))}, 5,
                         random.Random(5))
        assert [(b.substream, b.weight) for b in out] == [("s", 5.0)]
        assert received == {"s": 2.5, "t": 4.0}

    def test_received_weight_scales_the_recovered_count(self, columns):
        """Eq. 8 with W_in = 3: 100 arrivals stand for 300 originals."""
        [batch] = node_close({"s": 3.0}, {"s": columns("s", range(100))}, 10,
                             random.Random(6))
        assert batch.estimated_count == pytest.approx(300.0)


class TestFigure3:
    def test_the_received_weight_applies_again_next_interval(self, columns):
        """Figure 3 at node B, over two intervals.

        Interval v: items 5, 2 arrive with the received w = 1.5, into a
        reservoir of 1, so B outputs w = 3. Interval v+1: items 3, 4
        arrive with no weight metadata; B sends them in at the weight it
        last *received*, 1.5, never its own output 3 — feeding that back
        would compound the weight every interval and report the two
        items as 6 originals instead of 3.
        """
        rng = random.Random(10)
        received = 1.5
        [v] = whsamp_batches(
            [WeightedBatch("s", received, columns("s", [5, 2]))], 1, rng=rng
        )
        [v_next] = whsamp_batches(
            [WeightedBatch("s", received, columns("s", [3, 4]))], 1, rng=rng
        )
        assert v.weight == pytest.approx(3.0)
        assert v_next.weight == pytest.approx(3.0)
        assert v_next.estimated_count == pytest.approx(received * 2)
