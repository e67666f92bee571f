"""The sampling kernel through ``whsamp_batches``: Eq. 8 and an unbiased SUM.

``batch_sample_indices`` must preserve the Eq. 8 count invariant
exactly (``W_out * c~ == W_in * c``) and leave the weighted SUM
unbiased. Its inclusion distribution is held to
:class:`~repro.core.reservoir.ReservoirSampler` in
``tests/engine/test_entropy_contract.py::TestBatchSampleIndices``.
"""

import random

import pytest

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.core.whs import whsamp_batches


def pair(substream: str, weight: float, count: int) -> WeightedBatch:
    return WeightedBatch(
        substream, weight, ColumnarBatch.single(substream, range(count))
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whsamp_preserves_count_invariant(seed):
    """``sum(W_out * c~)`` recovers the exact arrival count."""
    rng = random.Random(seed)
    shape = {"a": 4000, "b": 350, "c": 17, "d": 1}
    pairs = [pair(substream, 1.0, count) for substream, count in shape.items()]
    result = whsamp_batches(pairs, 300, rng=rng)
    estimated = sum(batch.estimated_count for batch in result)
    assert estimated == pytest.approx(sum(shape.values()))
    for batch in result:
        assert batch.estimated_count == pytest.approx(shape[batch.substream])


def test_whsamp_batches_invariant_with_input_weights():
    """Eq. 8 composes across layers: W_out * c~ == W_in * c per group."""
    rng = random.Random(7)
    pairs = [
        pair("a", 2.5, 900),
        pair("a", 4.0, 300),
        pair("b", 1.0, 50),
    ]
    result = whsamp_batches(pairs, 120, rng=rng)
    by_group = [
        (batch.substream, batch.estimated_count) for batch in result
    ]
    # Each (sub-stream, W_in) group preserves its own estimated count.
    expected = {("a", 2.5 * 900), ("a", 4.0 * 300), ("b", 1.0 * 50)}
    for substream, count in expected:
        assert any(
            batch.substream == substream
            and batch.estimated_count == pytest.approx(count)
            for batch in result
        ), (substream, count, by_group)


def test_whsamp_estimate_is_unbiased():
    """The kernel does not bias the weighted SUM estimate."""
    stream = [
        WeightedBatch("a", 1.0, ColumnarBatch.single("a", [1.0] * 5000)),
        WeightedBatch("b", 1.0, ColumnarBatch.single("b", [10.0] * 500)),
    ]
    exact = 5000 * 1.0 + 500 * 10.0
    total = 0.0
    for seed in range(40):
        result = whsamp_batches(stream, 250, rng=random.Random(seed))
        total += sum(batch.estimated_sum for batch in result)
    assert total / 40 == pytest.approx(exact, rel=0.05)
