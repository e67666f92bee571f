"""The sampling kernel through ``whsamp``: Eq. 8 and an unbiased SUM.

``batch_sample_indices`` must preserve the Eq. 8 count invariant
exactly (``W_out * c~ == W_in * c``) and leave the weighted SUM
unbiased. Its inclusion distribution is held to
:class:`~repro.core.reservoir.ReservoirSampler` in
``tests/engine/test_entropy_contract.py::TestBatchSampleIndices``.
"""

import random

import pytest

from repro.core.items import StreamItem, WeightedBatch
from repro.core.whs import whsamp, whsamp_batches


def items_for(substream: str, count: int) -> list[StreamItem]:
    return [StreamItem(substream, float(i)) for i in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whsamp_preserves_count_invariant(seed):
    """``sum(W_out * c~)`` recovers the exact arrival count."""
    rng = random.Random(seed)
    shape = {"a": 4000, "b": 350, "c": 17, "d": 1}
    items = [
        item
        for substream, count in shape.items()
        for item in items_for(substream, count)
    ]
    rng.shuffle(items)
    result = whsamp(items, 300, rng=rng)
    estimated = sum(batch.estimated_count for batch in result.batches)
    assert estimated == pytest.approx(sum(shape.values()))
    for batch in result.batches:
        assert batch.estimated_count == pytest.approx(shape[batch.substream])


def test_whsamp_batches_invariant_with_input_weights():
    """Eq. 8 composes across layers: W_out * c~ == W_in * c per group."""
    rng = random.Random(7)
    pairs = [
        WeightedBatch("a", 2.5, items_for("a", 900)),
        WeightedBatch("a", 4.0, items_for("a", 300)),
        WeightedBatch("b", 1.0, items_for("b", 50)),
    ]
    result = whsamp_batches(pairs, 120, rng=rng)
    by_group = [
        (batch.substream, batch.estimated_count) for batch in result.batches
    ]
    # Each (sub-stream, W_in) group preserves its own estimated count.
    expected = {("a", 2.5 * 900), ("a", 4.0 * 300), ("b", 1.0 * 50)}
    for substream, count in expected:
        assert any(
            batch.substream == substream
            and batch.estimated_count == pytest.approx(count)
            for batch in result.batches
        ), (substream, count, by_group)


def test_whsamp_estimate_is_unbiased():
    """The kernel does not bias the weighted SUM estimate."""
    stream = [StreamItem("a", 1.0)] * 5000 + [StreamItem("b", 10.0)] * 500
    exact = sum(item.value for item in stream)
    total = 0.0
    for seed in range(40):
        result = whsamp(stream, 250, rng=random.Random(seed))
        total += sum(batch.estimated_sum for batch in result.batches)
    assert total / 40 == pytest.approx(exact, rel=0.05)
