"""Case study: per-pollutant totals with adaptive sampling (paper §VI-B).

Answers the paper's Brasov query — "what is the total pollution value
of particulate matter, CO, SO2 and NO2 in every time window?" — using
the grouped SUM query, then demonstrates the adaptive feedback loop:
the analyst sets a relative-error budget and the controller adjusts
the sampling fraction window by window.

Run:  python examples/pollution_monitoring.py
"""

from repro.core.cost import AdaptiveErrorBudget
from repro.core.estimator import ThetaStore
from repro.core.items import StreamItem, WeightedBatch
from repro.experiments.base import ExperimentScale
from repro.experiments.fig11 import pollution_workload
from repro.metrics.report import Table
from repro.queries import PerSubstreamSumQuery
from repro.system import FeedbackDriver, PipelineConfig, StatisticalRunner


def grouped_query_demo(scale: ExperimentScale) -> None:
    """One window, reported per pollutant with individual bounds."""
    schedule, generators = pollution_workload(scale)
    config = PipelineConfig(sampling_fraction=0.2, seed=scale.config.seed)
    runner = StatisticalRunner(config, schedule, generators)
    outcome = runner.run_window()

    # Rebuild a Theta store from a second sampled window to show the
    # grouped query API (the runner reports the overall SUM itself).
    import random
    rng = random.Random(scale.config.seed)
    theta = ThetaStore()
    for substream, generator in generators.items():
        items = generator.generate(400, rng)
        theta.add(WeightedBatch(substream, 5.0, items[:80]))

    table = Table("Per-pollutant totals (grouped SUM query)",
                  ["pollutant", "approx total", "error (95%)"])
    grouped = PerSubstreamSumQuery().execute_grouped(theta)
    for substream in sorted(grouped):
        result = grouped[substream]
        table.add_row(
            substream.split("/")[1],
            f"{result.value:,.0f}",
            f"±{result.error:,.0f}",
        )
    print(table.render())
    print(f"\nwhole-window SUM loss at 20% fraction: "
          f"{outcome.approxiot_loss:.4f}%\n")


def adaptive_demo(scale: ExperimentScale) -> None:
    """Error-budget feedback: tighten sampling until the bound fits."""
    schedule, generators = pollution_workload(scale)
    config = PipelineConfig(sampling_fraction=0.02, seed=scale.config.seed)
    controller = AdaptiveErrorBudget(
        target_relative_error=0.002, initial_fraction=0.02
    )
    driver = FeedbackDriver(config, schedule, generators, controller)
    outcome = driver.run(8)

    table = Table("Adaptive feedback (target relative error 0.2%)",
                  ["window", "fraction used", "realized rel. error"])
    for index, (fraction, error) in enumerate(
        zip(outcome.fractions, outcome.relative_errors), start=1
    ):
        table.add_row(index, f"{fraction:.1%}", f"{100 * error:.4f}%")
    print(table.render())
    print(f"\nfinal fraction: {outcome.final_fraction:.1%}")


def main() -> None:
    scale = ExperimentScale(
        rate_scale=0.05, windows=5, config=PipelineConfig(seed=2014)
    )
    grouped_query_demo(scale)
    adaptive_demo(scale)


if __name__ == "__main__":
    main()
