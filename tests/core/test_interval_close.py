"""Algorithm 2's per-node interval close, composed from the primitives.

A node's close is one Algorithm 1 call — ``whsamp`` over raw arrivals
at an edge, ``whsamp_batches`` over the received ``(W_out, items)``
pairs further up — and the root folds its pairs into a
:class:`ThetaStore` that ``estimate_sum_with_error`` answers from. The
engine runs exactly this per node; these tests pin the node-level
behaviour (forwarding, weight composition, count recovery through
several layers) on the calls themselves.
"""

import random

import pytest

from repro.core.error_bounds import estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.items import StreamItem, WeightedBatch
from repro.core.whs import whsamp, whsamp_batches
from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import InProcessTransport
from repro.errors import EstimationError, SamplingError
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams


def make_items(substream, values):
    return [StreamItem(substream, float(v)) for v in values]


def root_theta(batches, sample_size, rng):
    """The root's close: sample the received pairs, stash them in Theta."""
    theta = ThetaStore()
    theta.extend(whsamp_batches(batches, sample_size, rng=rng).batches)
    return theta


def recovered_count(theta):
    return sum(est.estimated_count for est in theta.per_substream().values())


class TestEdgeClose:
    def test_overflowing_substream_forwards_capacity_items(self):
        result = whsamp(make_items("a", range(100)), 10, rng=random.Random(1))
        assert len(result.batches) == 1
        assert result.batches[0].substream == "a"
        assert len(result.batches[0]) == 10
        assert result.batches[0].weight == pytest.approx(10.0)

    def test_each_substream_forwards_its_own_batch(self):
        items = make_items("a", range(50)) + make_items("b", range(50))
        result = whsamp(items, 10, rng=random.Random(2))
        assert {batch.substream for batch in result.batches} == {"a", "b"}

    def test_received_weight_composes_into_the_output_weight(self):
        # Figure 3 node B: 2 items into reservoir 1, W_in 1.5 -> W_out 3.
        received = [WeightedBatch("s", 1.5, make_items("s", [5, 2]))]
        result = whsamp_batches(received, 1, rng=random.Random(3))
        assert result.batches[0].weight == pytest.approx(3.0)

    def test_next_interval_pair_carries_its_own_weight(self):
        """Figure 3: items 3, 4 arrive an interval later under w = 3."""
        rng = random.Random(4)
        first = whsamp_batches(
            [WeightedBatch("s", 1.5, make_items("s", [5, 2]))], 1, rng=rng
        )
        second = whsamp_batches(
            [WeightedBatch("s", 3.0, make_items("s", [3, 4]))], 1, rng=rng
        )
        assert first.batches[0].weight == pytest.approx(3.0)
        assert second.batches[0].weight == pytest.approx(6.0)

    def test_idle_interval_forwards_nothing(self):
        assert whsamp([], 10).batches == []
        idle = whsamp_batches([WeightedBatch("s", 2.0, [])], 10)
        assert idle.batches == []
        assert idle.seen == {}

    def test_arrival_counter_covers_the_interval(self):
        result = whsamp(make_items("a", range(7)), 10, rng=random.Random(5))
        assert result.seen == {"a": 7}
        assert sum(len(b) for b in result.batches) == 7

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(SamplingError):
            whsamp(make_items("a", range(3)), budget)
        with pytest.raises(SamplingError):
            whsamp_batches([WeightedBatch("a", 1.0, make_items("a", [1]))], budget)


class TestRootClose:
    def test_root_pairs_accumulate_in_theta(self):
        raw = [WeightedBatch("a", 1.0, make_items("a", range(100)))]
        theta = root_theta(raw, 10, random.Random(5))
        assert len(theta) == 1
        assert theta.sampled_items == 10

    def test_unsampled_window_answers_exactly(self):
        raw = [WeightedBatch("a", 1.0, make_items("a", [1, 2, 3, 4]))]
        theta = root_theta(raw, 1000, random.Random(6))
        total = estimate_sum_with_error(theta)
        assert total.value == pytest.approx(10.0)
        assert total.sampled_items == 4
        assert recovered_count(theta) == pytest.approx(4.0)

    def test_empty_theta_refuses_an_estimate(self):
        raw = [WeightedBatch("a", 1.0, make_items("a", range(20)))]
        estimate_sum_with_error(root_theta(raw, 10, random.Random(7)))
        theta = ThetaStore()
        assert len(theta) == 0
        with pytest.raises(EstimationError):
            estimate_sum_with_error(theta)

    def test_estimate_recovers_total_sum_approximately(self):
        rng = random.Random(9)
        values = [rng.gauss(50, 5) for _ in range(5000)]
        raw = [WeightedBatch("a", 1.0, make_items("a", values))]
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
    def test_edge_to_root_recovers_the_emitted_count(self):
        """Four sub-streams through edge -> root recover their count."""
        rng = random.Random(10)
        items = [
            item
            for substream in ("a", "b", "c", "d")
            for item in make_items(substream, range(250))
        ]
        edge = whsamp(items, 100, rng=rng)
        theta = root_theta(edge.batches, 50, rng)
        assert recovered_count(theta) == pytest.approx(1000.0)

    def test_three_layer_chain_preserves_counts(self):
        rng = random.Random(11)
        leaf = whsamp(make_items("s", range(640)), 80, rng=rng)
        mid = whsamp_batches(leaf.batches, 40, rng=rng)
        theta = root_theta(mid.batches, 20, rng)
        assert theta.sampled_items == 20
        assert recovered_count(theta) == pytest.approx(640.0)

    def test_two_edges_into_one_root(self):
        """The quickstart topology: the bound covers the exact SUM."""
        rng = random.Random(7)
        chatty = make_items("t", [rng.gauss(21.0, 2.0) for _ in range(3000)])
        quiet = make_items("p", [rng.gauss(500.0, 15.0) for _ in range(40)])
        west = whsamp(chatty[:1500] + quiet[:20], 300, rng=rng)
        east = whsamp(chatty[1500:] + quiet[20:], 300, rng=rng)
        root = whsamp_batches(west.batches + east.batches, 150, rng=rng)
        theta = ThetaStore()
        theta.extend(root.batches)
        exact = sum(item.value for item in chatty + quiet)
        assert recovered_count(theta) == pytest.approx(3040.0)
        assert estimate_sum_with_error(theta).contains(exact)
