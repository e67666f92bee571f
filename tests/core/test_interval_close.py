"""Algorithm 2's per-node interval close, composed from the primitives.

A node's close is one Algorithm 1 call — ``whsamp_batches`` over the
``(W_in, items)`` pairs that arrived: raw arrivals at weight 1 at an
edge, the received ``(W_out, items)`` pairs further up — and the root
folds its pairs into a :class:`ThetaStore` that
``estimate_sum_with_error`` answers from. The engine runs exactly this
per node; these tests pin the node-level behaviour (forwarding, weight
composition, count recovery through several layers) on the calls
themselves.
"""

import random

import pytest

from repro.core.error_bounds import estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.items import WeightedBatch
from repro.core.stratified import allocate_proportional
from repro.core.whs import whsamp_batches
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner, sample_interval
from repro.engine.transport import InProcessTransport
from repro.errors import EstimationError, SamplingError
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams


def root_theta(batches, sample_size, rng):
    """The root's close: sample the received pairs, stash them in Theta."""
    theta = ThetaStore()
    theta.extend(whsamp_batches(batches, sample_size, rng=rng))
    return theta


def recovered_count(theta):
    return sum(est.estimated_count for est in theta.per_substream().values())


class TestEdgeClose:
    def test_overflowing_substream_forwards_capacity_items(self, fresh):
        [batch] = whsamp_batches([fresh("a", range(100))], 10,
                                 rng=random.Random(1))
        assert batch.substream == "a"
        assert len(batch) == 10
        assert batch.weight == pytest.approx(10.0)

    def test_each_substream_forwards_its_own_batch(self, fresh):
        out = whsamp_batches([fresh("a", range(50)), fresh("b", range(50))],
                             10, rng=random.Random(2))
        assert [batch.substream for batch in out] == ["a", "b"]

    def test_received_weight_composes_into_the_output_weight(self, columns):
        # Figure 3 node B: 2 items into reservoir 1, W_in 1.5 -> W_out 3.
        received = [WeightedBatch("s", 1.5, columns("s", [5, 2]))]
        [batch] = whsamp_batches(received, 1, rng=random.Random(3))
        assert batch.weight == pytest.approx(3.0)

    def test_next_interval_pair_carries_its_own_weight(self, columns):
        """Figure 3: items 3, 4 arrive an interval later under w = 3."""
        rng = random.Random(4)
        [first] = whsamp_batches(
            [WeightedBatch("s", 1.5, columns("s", [5, 2]))], 1, rng=rng
        )
        [second] = whsamp_batches(
            [WeightedBatch("s", 3.0, columns("s", [3, 4]))], 1, rng=rng
        )
        assert first.weight == pytest.approx(3.0)
        assert second.weight == pytest.approx(6.0)

    def test_idle_interval_forwards_nothing(self, columns):
        assert whsamp_batches([], 10) == []
        idle = WeightedBatch("s", 2.0, columns("s", []))
        assert whsamp_batches([idle], 10) == []

    def test_arrival_counter_covers_the_interval(self, fresh):
        """An underfull interval forwards every arrival at its W_in."""
        out = whsamp_batches([fresh("a", range(7))], 10, rng=random.Random(5))
        assert sum(batch.estimated_count for batch in out) == 7
        assert sorted(v for b in out for v in b.items.values.tolist()) == [
            float(v) for v in range(7)
        ]

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, fresh, budget):
        with pytest.raises(SamplingError):
            whsamp_batches([fresh("a", range(3))], budget)
        with pytest.raises(SamplingError):
            whsamp_batches([], budget)


def small_pipeline(seed=8):
    config = PipelineConfig(sampling_fraction=0.2, window_seconds=1.0,
                            seed=seed)
    schedule = RateSchedule("close-test", {"A": 100.0, "B": 100.0})
    gens = {g.name: g for g in paper_gaussian_substreams()}
    return build_pipeline(config, schedule, gens)


class TestSampleInterval:
    """The engine's close: Algorithm 1 under the node's own budget."""

    def test_a_node_keeps_its_budget(self, fresh):
        pipeline = small_pipeline()
        node = pipeline.tree.sampling_nodes[0].name
        budget = pipeline.budget(node)
        out = sample_interval(
            pipeline, node, [fresh("a", range(10 * budget))]
        )
        [batch] = out
        assert len(batch) == budget
        assert batch.estimated_count == pytest.approx(10 * budget)

    def test_draws_come_from_the_pipeline_generator(self, fresh):
        """Equal seeds, equal survivors; the run's one Generator moves."""
        picked = []
        for _ in range(2):
            pipeline = small_pipeline(seed=3)
            node = pipeline.tree.sampling_nodes[0].name
            [batch] = sample_interval(pipeline, node, [fresh("a", range(500))])
            picked.append(batch.items.values.tolist())
        assert picked[0] == picked[1]
        pipeline = small_pipeline(seed=3)
        node = pipeline.tree.sampling_nodes[0].name
        sample_interval(pipeline, node, [fresh("a", range(500))])
        [again] = sample_interval(pipeline, node, [fresh("a", range(500))])
        assert again.items.values.tolist() != picked[0]

    def test_an_allocation_override_supersedes_the_config_policy(self, fresh):
        pipeline = small_pipeline()
        node = pipeline.tree.sampling_nodes[0].name
        budget = pipeline.budget(node)
        arrivals = [fresh("a", range(9 * budget)), fresh("b", range(budget))]
        proportional = allocate_proportional(
            budget, {"a": 9 * budget, "b": budget}
        )
        by_config = sample_interval(pipeline, node, arrivals)
        assert {b.substream: len(b) for b in by_config} != proportional
        pipeline.allocation_override = allocate_proportional
        out = sample_interval(pipeline, node, arrivals)
        assert {b.substream: len(b) for b in out} == proportional


class TestRootClose:
    def test_root_pairs_accumulate_in_theta(self, fresh):
        raw = [fresh("a", range(100))]
        theta = root_theta(raw, 10, random.Random(5))
        assert len(theta) == 1
        assert theta.sampled_items == 10

    def test_unsampled_window_answers_exactly(self, fresh):
        raw = [fresh("a", [1, 2, 3, 4])]
        theta = root_theta(raw, 1000, random.Random(6))
        total = estimate_sum_with_error(theta)
        assert total.value == pytest.approx(10.0)
        assert total.sampled_items == 4
        assert recovered_count(theta) == pytest.approx(4.0)

    def test_empty_theta_refuses_an_estimate(self, fresh):
        raw = [fresh("a", range(20))]
        estimate_sum_with_error(root_theta(raw, 10, random.Random(7)))
        theta = ThetaStore()
        assert len(theta) == 0
        with pytest.raises(EstimationError):
            estimate_sum_with_error(theta)

    def test_estimate_recovers_total_sum_approximately(self, fresh):
        rng = random.Random(9)
        values = [rng.gauss(50, 5) for _ in range(5000)]
        raw = [fresh("a", values)]
        theta = root_theta(raw, 200, rng)
        assert estimate_sum_with_error(theta).value == pytest.approx(
            sum(values), rel=0.05
        )
        assert recovered_count(theta) == pytest.approx(5000.0)

    def test_engine_window_index_increments(self):
        config = PipelineConfig(sampling_fraction=0.2, window_seconds=1.0, seed=8)
        schedule = RateSchedule("close-test", {"A": 100.0, "B": 100.0})
        gens = {g.name: g for g in paper_gaussian_substreams()}
        runner = EngineRunner(
            build_pipeline(config, schedule, gens),
            InProcessTransport(),
        )
        run = runner.run(3)
        assert [window.window_index for window in run.windows] == [1, 2, 3]


class TestChains:
    def test_edge_to_root_recovers_the_emitted_count(self, fresh):
        """Four sub-streams through edge -> root recover their count."""
        rng = random.Random(10)
        raw = [fresh(substream, range(250)) for substream in "abcd"]
        theta = root_theta(whsamp_batches(raw, 100, rng=rng), 50, rng)
        assert recovered_count(theta) == pytest.approx(1000.0)

    def test_three_layer_chain_preserves_counts(self, fresh):
        rng = random.Random(11)
        leaf = whsamp_batches([fresh("s", range(640))], 80, rng=rng)
        mid = whsamp_batches(leaf, 40, rng=rng)
        theta = root_theta(mid, 20, rng)
        assert theta.sampled_items == 20
        assert recovered_count(theta) == pytest.approx(640.0)

    def test_two_edges_into_one_root(self, fresh):
        """The quickstart topology: the bound covers the exact SUM."""
        rng = random.Random(7)
        chatty = [rng.gauss(21.0, 2.0) for _ in range(3000)]
        quiet = [rng.gauss(500.0, 15.0) for _ in range(40)]
        west = whsamp_batches(
            [fresh("t", chatty[:1500]), fresh("p", quiet[:20])], 300, rng=rng
        )
        east = whsamp_batches(
            [fresh("t", chatty[1500:]), fresh("p", quiet[20:])], 300, rng=rng
        )
        theta = root_theta(west + east, 150, rng)
        exact = sum(chatty + quiet)
        assert recovered_count(theta) == pytest.approx(3040.0)
        assert estimate_sum_with_error(theta).contains(exact)
