"""Case study: per-pollutant totals with adaptive sampling (paper §VI-B).

Answers the paper's Brasov query — "what is the total pollution value
of particulate matter, CO, SO2 and NO2 in every time window?" — using
the grouped SUM query, then demonstrates the adaptive feedback loop:
the analyst sets a relative-error budget and the controller adjusts
the sampling fraction window by window.

Run:  python examples/pollution_monitoring.py
"""

from repro.engine.pipeline import build_pipeline
from repro.engine.runner import EngineRunner
from repro.engine.transport import InProcessTransport
from repro.experiments.base import ExperimentScale, pollution_workload
from repro.metrics.report import Table
from repro.queries import PerSubstreamSumQuery
from repro.system import (
    AdaptiveFractionController,
    PipelineConfig,
    StatisticalRunner,
    observe_window,
)


def grouped_query_demo(scale: ExperimentScale) -> None:
    """One window, reported per pollutant with individual bounds."""
    schedule, generators = pollution_workload(scale)
    config = PipelineConfig(sampling_fraction=0.2, seed=scale.config.seed)
    runner = StatisticalRunner(config, schedule, generators)
    # The grouped query reads the root Theta of the window it reports:
    # the same (W_out, I) pairs the whole-window estimate came from.
    outcome, theta = runner.engine.run_window_with_theta()

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


def adaptive_demo(scale: ExperimentScale) -> list[float]:
    """Error-budget feedback: tighten sampling until the bound fits.

    One engine runs all eight windows; before each, the controller
    re-derives every node's budget from its fraction, and after each it
    reads the window's reported bound. Returns the fractions used.
    """
    schedule, generators = pollution_workload(scale)
    config = PipelineConfig(sampling_fraction=0.02, seed=scale.config.seed)
    runner = EngineRunner(
        build_pipeline(config, schedule, generators), InProcessTransport()
    )
    controller = AdaptiveFractionController(
        target_relative_error=0.002, initial_fraction=0.02
    )

    table = Table("Adaptive feedback (target relative error 0.2%)",
                  ["window", "fraction used", "realized rel. error"])
    fractions = []
    for index in range(8):
        fraction = controller.fraction
        controller.begin_window(runner.pipeline)
        outcome, theta = runner.run_window_with_theta()
        # An empty window (no theta) or a zero estimate (no relative
        # bound) holds the fraction.
        observation = (
            None if theta is None
            else observe_window(index, theta, outcome.approx_sum)
        )
        controller.observe(observation)
        fractions.append(fraction)
        bound = None if observation is None else observation.relative_bound
        table.add_row(index + 1, f"{fraction:.1%}",
                      "n/a" if bound is None else f"{100 * bound:.4f}%")
    print(table.render())
    print(f"\nfinal fraction: {fractions[-1]:.1%}")
    return fractions


SCALE = ExperimentScale(
    rate_scale=0.05, windows=5, config=PipelineConfig(seed=2014)
)


def main() -> None:
    grouped_query_demo(SCALE)
    adaptive_demo(SCALE)


if __name__ == "__main__":
    main()
