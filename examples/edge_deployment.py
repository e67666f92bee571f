"""Deployment comparison: ApproxIoT vs SRS vs native on a simulated WAN.

Places the paper's 4-layer tree (8 sources, 4+2 edge nodes, 1 root)
onto the discrete-event substrate with the paper's tc settings
(20/40/80 ms RTTs, 1 Gbps links) and a saturating input rate, then
reports throughput, end-to-end latency, realized sampling fraction and
inter-layer bandwidth for the three systems.

Run:  python examples/edge_deployment.py
"""

from repro.experiments.base import (
    ExperimentScale,
    gaussian_generators,
    saturating_placement,
    uniform_schedule,
)
from repro.metrics.report import Table, format_rate
from repro.system import DeploymentSimulator, ExecutionMode, PipelineConfig


def main() -> None:
    scale = ExperimentScale(rate_scale=0.1, config=PipelineConfig(seed=99))
    schedule = uniform_schedule(scale.rate_scale)
    placement = saturating_placement(schedule)
    generators = gaussian_generators()

    table = Table(
        "Simulated deployment at a saturating input (10% fraction, 1 s window)",
        ["system", "throughput", "mean latency", "realized fraction",
         "inter-layer MB"],
    )
    for mode in (ExecutionMode.APPROXIOT, ExecutionMode.SRS,
                 ExecutionMode.NATIVE):
        fraction = 1.0 if mode == ExecutionMode.NATIVE else 0.1
        config = PipelineConfig(
            sampling_fraction=fraction,
            window_seconds=1.0,
            mode=mode,
            placement=placement,
            seed=scale.config.seed,
        )
        simulator = DeploymentSimulator(
            config, schedule, generators, n_windows=10
        )
        report = simulator.run()
        inter_layer_mb = sum(report.boundary_bytes[1:]) / 1e6
        table.add_row(
            mode,
            format_rate(report.throughput_items_per_second),
            f"{report.mean_latency_seconds:.2f} s",
            f"{report.realized_fraction:.1%}",
            f"{inter_layer_mb:.2f}",
        )
    print(table.render())
    print("\nThe WAN uses the paper's tc settings: 20/40/80 ms RTT "
          "between layers, 1 Gbps links.")


if __name__ == "__main__":
    main()
