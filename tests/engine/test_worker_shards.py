"""§III-E's coordination-free workers on the engine's primitives.

A sub-stream handled by ``w`` workers is split into ``w`` equal
portions; each worker samples its portion with ``1/w`` of the budget
and the per-worker ``(W_out, I)`` pairs are concatenated upstream (the
union is every worker's output batches, end to end). Eq. 8 holds
per pair, hence for the union, so the worker count must change neither
the recovered count nor the expectation of the estimate. The engine's form of the
same model is :func:`plan_shards` + ``ShardedEngineRunner(...,
inline=True)``; both are checked here across worker counts.
"""

import random
from dataclasses import replace

import pytest

from repro.core.error_bounds import estimate_sum_with_error
from repro.core.estimator import ThetaStore
from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches
from repro.engine.sharding import ShardedEngineRunner, plan_shards
from repro.errors import SamplingError
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

WIDTHS = [1, 2, 4, 8]
GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "worker-test", {"A": 240.0, "B": 240.0, "C": 240.0, "D": 240.0}
)


def worker_close(arrivals, capacity, workers, rng, input_weight=1.0):
    """One node's interval close run by ``workers`` round-robin workers.

    Returns each worker's Algorithm 1 output, in worker order.
    """
    outputs = []
    for index in range(workers):
        portion = arrivals.select(list(range(index, len(arrivals), workers)))
        pairs = [
            WeightedBatch(substream, input_weight, part)
            for substream, part in portion.group_by_substream().items()
        ]
        outputs.append(whsamp_batches(pairs, capacity // workers, rng=rng))
    return outputs


def union(results):
    """§III-E's merge: the workers' pairs, concatenated."""
    return [batch for result in results for batch in result]


def recovered_count(results):
    return sum(batch.estimated_count for batch in union(results))


class TestPlanShards:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_every_shard_gets_an_equal_share(self, workers):
        config = PipelineConfig(seed=3, workers=workers)
        plans = plan_shards(config, SCHEDULE)
        assert [plan.index for plan in plans] == list(range(workers))
        for plan in plans:
            for substream, rate in SCHEDULE.rates.items():
                assert plan.schedule.rates[substream] == pytest.approx(
                    rate / workers, rel=1e-12
                )


class TestWorkerUnion:
    @pytest.mark.parametrize("workers", WIDTHS)
    def test_union_recovers_the_count_exactly(self, workers, columns):
        results = worker_close(
            columns("s", range(1000)), 40, workers, random.Random(4)
        )
        assert recovered_count(results) == pytest.approx(1000.0)

    def test_input_weight_composes_over_the_union(self, columns):
        results = worker_close(
            columns("s", range(100)), 20, 2, random.Random(5),
            input_weight=2.5,
        )
        assert recovered_count(results) == pytest.approx(250.0)

    def test_one_pair_per_worker(self, columns):
        results = worker_close(
            columns("s", range(400)), 40, 4, random.Random(1)
        )
        assert len(union(results)) == 4
        assert all(len(batch) == 10 for batch in union(results))

    def test_substreams_keep_separate_worker_pairs(self, columns):
        arrivals = ColumnarBatch.concat(
            [columns("a", range(50)), columns("b", range(50))]
        )
        results = worker_close(arrivals, 10, 2, random.Random(4))
        substreams = [batch.substream for batch in union(results)]
        assert sorted(substreams) == ["a", "a", "b", "b"]

    def test_underfull_workers_keep_everything(self, columns):
        results = worker_close(
            columns("s", range(8)), 100, 4, random.Random(7)
        )
        assert sum(len(batch) for batch in union(results)) == 8
        assert all(batch.weight == 1.0 for batch in union(results))

    def test_idle_workers_forward_nothing(self):
        results = worker_close(ColumnarBatch.empty(), 10, 2, random.Random(8))
        assert union(results) == []

    def test_weights_are_per_worker_and_never_rescaled(self, columns):
        """Eq. 1 runs against each worker's own portion and reservoir;
        concatenation keeps every worker's W_out as it was."""
        results = worker_close(
            columns("s", range(300)), 30, 3, random.Random(2)
        )
        assert [batch.weight for batch in union(results)] == [10.0] * 3

    def test_union_estimate_is_the_sum_of_worker_estimates(self, columns):
        rng = random.Random(11)
        arrivals = columns("s", [rng.gauss(50, 5) for _ in range(900)])
        results = worker_close(arrivals, 90, 3, random.Random(12))
        theta = ThetaStore()
        theta.extend(union(results))
        per_worker = []
        for result in results:
            own = ThetaStore()
            own.extend(result)
            per_worker.append(estimate_sum_with_error(own))
        merged = estimate_sum_with_error(theta)
        assert merged.value == pytest.approx(
            sum(w.value for w in per_worker), rel=1e-12
        )
        assert merged.sampled_items == sum(w.sampled_items for w in per_worker)

    def test_less_than_one_slot_per_worker_is_rejected(self, columns):
        with pytest.raises(SamplingError):
            worker_close(columns("s", range(10)), 3, 4, random.Random(9))

    @pytest.mark.parametrize("workers", WIDTHS)
    def test_estimate_unbiased_across_worker_counts(self, workers, columns):
        """The Ablation 5 claim: worker count does not bias the estimate."""
        rng = random.Random(6)
        values = [rng.gauss(100, 10) for _ in range(2000)]
        arrivals = columns("s", values)
        estimates = []
        for trial in range(30):
            theta = ThetaStore()
            theta.extend(union(
                worker_close(arrivals, 200, workers, random.Random(100 + trial))
            ))
            estimates.append(estimate_sum_with_error(theta).value)
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(sum(values), rel=0.02)


class TestInlineShardedEngine:
    """``inline=True`` runs the shards in-process: §III-E on the engine."""

    @staticmethod
    def run(workers, seed=13, windows=2):
        config = PipelineConfig(
            sampling_fraction=0.2, window_seconds=1.0, seed=seed,
        )
        return ShardedEngineRunner(
            replace(config, workers=workers), SCHEDULE, GENS, inline=True
        ).run(windows)

    @pytest.mark.parametrize("workers", WIDTHS)
    def test_emitted_items_do_not_depend_on_the_width(self, workers):
        run = self.run(workers)
        assert [window.items_emitted for window in run.windows] == [960, 960]

    @pytest.mark.parametrize("workers", WIDTHS)
    def test_sample_stays_a_fraction_of_the_stream(self, workers):
        run = self.run(workers)
        for window in run.windows:
            assert 0 < window.items_sampled < window.items_emitted
            assert window.approx_sum.sampled_items == window.items_sampled

    @pytest.mark.parametrize("workers", WIDTHS)
    def test_mean_estimate_bias_stays_small(self, workers):
        estimates, exact = [], []
        for seed in range(5):
            window = self.run(workers, seed=seed, windows=1).windows[0]
            estimates.append(window.approx_sum.value)
            exact.append(window.exact_sum)
        bias = abs(sum(estimates) - sum(exact)) / sum(exact)
        assert bias < 0.02
