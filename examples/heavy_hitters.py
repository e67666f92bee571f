"""Extension queries: top-k sub-streams and quantiles under skew.

The paper supports linear queries and leaves top-k to future work
(§VIII); this library implements it over the same weighted sample.
The scenario is §V-E's pathological workload: sub-stream D carries
0.01 % of the items but nearly all of the value. Stratified sampling
keeps D in every window, so the top-k ranking stays correct at a 10 %
sampling fraction — and the quantile query shows the value
distribution's shape from the same sample.

Run:  python examples/heavy_hitters.py
"""

import random

from repro.core import ThetaStore, WeightedBatch, whsamp_batches
from repro.core.fastpath import make_generator
from repro.metrics.report import Table
from repro.queries import QuantileQuery, TopKQuery
from repro.workloads import paper_skewed_mixture


def main() -> None:
    rng = random.Random(2018)
    mixture = paper_skewed_mixture()
    mixed = mixture.draw_columns(100_000, make_generator(rng))
    strata = mixed.group_by_substream()
    exact_totals = {
        substream: sum(batch.values.tolist())
        for substream, batch in strata.items()
    }

    # One window at a 10% sampling fraction: every stratum arrives
    # fresh from its source, at weight 1.
    arrivals = [
        WeightedBatch(substream, 1.0, batch)
        for substream, batch in strata.items()
    ]
    theta = ThetaStore()
    theta.extend(whsamp_batches(arrivals, sample_size=10_000, rng=rng))

    table = Table(
        "Top-k sub-streams by estimated total (10% sample, skewed mixture)",
        ["rank", "sub-stream", "approx total", "error (95%)", "exact total",
         "rank stable"],
    )
    exact_order = sorted(exact_totals, key=exact_totals.get, reverse=True)
    for entry in TopKQuery(k=4).execute(theta):
        table.add_row(
            entry.rank,
            entry.substream,
            f"{entry.estimated_sum:,.0f}",
            f"±{entry.error:,.0f}",
            f"{exact_totals[entry.substream]:,.0f}",
            "yes" if entry.stable else "no",
        )
    print(table.render())
    ranked = [e.substream for e in TopKQuery(k=4).execute(theta)]
    print(f"\nexact ranking    : {exact_order}")
    print(f"ranking correct  : {ranked == exact_order}")

    quantiles = Table("\nValue quantiles from the same weighted sample",
                      ["q", "approx value", "band (95%)", "exact value"])
    exact_sorted = sorted(mixed.values.tolist())
    for q in (0.5, 0.9, 0.99):
        estimate = QuantileQuery(q).execute(theta)
        exact = exact_sorted[int(q * len(exact_sorted))]
        quantiles.add_row(
            f"{q:.2f}",
            f"{estimate.value:,.1f}",
            f"[{estimate.lower:,.1f}, {estimate.upper:,.1f}]",
            f"{exact:,.1f}",
        )
    print(quantiles.render())


if __name__ == "__main__":
    main()
