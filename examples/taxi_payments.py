"""Case study: total NYC taxi payments per window (paper §VI-A).

Streams synthesized DEBS-2015-style ride records through the paper's
4-layer edge topology at a 10 % sampling fraction and answers the
paper's query — "what is the total payment for taxi fares in NYC at
each time window?" — with error bounds, comparing against the exact
answer computed over the full stream.

Run:  python examples/taxi_payments.py
"""

from repro.experiments.base import ExperimentScale
from repro.experiments.fig11 import taxi_workload
from repro.metrics.report import Table
from repro.system import PipelineConfig, StatisticalRunner


def main() -> None:
    scale = ExperimentScale(
        rate_scale=0.1, windows=8, config=PipelineConfig(seed=2013)
    )
    schedule, generators = taxi_workload(scale)
    config = PipelineConfig(
        sampling_fraction=0.10,
        window_seconds=1.0,
        seed=scale.config.seed,
    )
    runner = StatisticalRunner(config, schedule, generators)

    table = Table(
        "Total taxi payment per 1 s window (10% sampling fraction)",
        ["window", "approx total ($)", "error bound", "exact total ($)",
         "loss"],
    )
    for _ in range(scale.windows):
        outcome = runner.run_window()
        table.add_row(
            outcome.window_index,
            f"{outcome.approx_sum.value:,.0f}",
            f"±{outcome.approx_sum.error:,.0f} (95%)",
            f"{outcome.exact_sum:,.0f}",
            f"{outcome.approxiot_loss:.3f}%",
        )
    print(table.render())
    print()
    print(f"rides per window   : ~{int(schedule.total_rate)}")
    print("sub-streams        : one per borough "
          f"({', '.join(sorted(schedule.rates))})")


if __name__ == "__main__":
    main()
