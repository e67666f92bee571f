"""Quickstart: weighted hierarchical sampling in a few lines.

Builds the paper's basic scenario by hand: two edge nodes sampling
sub-streams and forwarding to a root node that answers a SUM query
with rigorous error bounds, then checks the estimate against the
ground truth. Each node's interval close is one Algorithm 1 call,
``whsamp_batches`` over the ``(W_in, items)`` pairs that arrived —
raw sensor columns at weight 1 at an edge, the edges' weighted batches
at the root — and the root's answer comes from its Theta store,
exactly as the engine runs every node.

Run:  python examples/quickstart.py
"""

import random

from repro.core import (
    ColumnarBatch,
    ThetaStore,
    WeightedBatch,
    estimate_sum_with_error,
    whsamp_batches,
)


def arrivals(substream: str, values: list[float]) -> WeightedBatch:
    """Raw sensor readings: one sub-stream's columns at weight 1."""
    return WeightedBatch(substream, 1.0, ColumnarBatch.single(substream, values))


def main() -> None:
    rng = random.Random(7)

    # Sensors produce two sub-streams with very different magnitudes:
    # a chatty low-value one and a quiet high-value one. Stratified
    # sampling keeps both represented.
    chatty = [rng.gauss(21.0, 2.0) for _ in range(9_000)]
    quiet = [rng.gauss(50_000.0, 1_500.0) for _ in range(120)]

    # One time interval passes: each edge node samples its arrivals
    # with a budget of 800 items and forwards the weighted batches...
    west = whsamp_batches(
        [arrivals("temperature", chatty[:4500]), arrivals("power-grid", quiet[:60])],
        800, rng=rng,
    )
    east = whsamp_batches(
        [arrivals("temperature", chatty[4500:]), arrivals("power-grid", quiet[60:])],
        800, rng=rng,
    )

    # ...and the root (datacenter) samples what arrived to 400 items
    # and stashes the result in Theta for the window's query.
    theta = ThetaStore()
    theta.extend(whsamp_batches(west + east, 400, rng=rng))

    result = estimate_sum_with_error(theta)
    recovered = sum(est.estimated_count for est in theta.per_substream().values())
    exact = sum(chatty) + sum(quiet)

    print("ApproxIoT quickstart")
    print("--------------------")
    print(f"items emitted        : {len(chatty) + len(quiet)}")
    print(f"items at the root    : {result.sampled_items}")
    print(f"recovered item count : {recovered:.1f}  (exact by Eq. 8)")
    print(f"approximate SUM      : {result}")
    print(f"exact SUM            : {exact:,.1f}")
    loss = abs(result.value - exact) / exact
    print(f"accuracy loss        : {100 * loss:.4f}%")
    print(f"bound covers exact   : {result.contains(exact)}")


if __name__ == "__main__":
    main()
