"""ApproxIoT reproduction: approximate analytics for edge computing.

A from-scratch Python implementation of the system described in
*ApproxIoT: Approximate Analytics for Edge Computing* (Wen et al.,
ICDCS 2018), including the weighted hierarchical sampling algorithm,
a discrete-event WAN simulator that models the §IV deployment, the
paper's logical tree topology, workload generators, and the full
experiment harness.

Quickstart::

    from repro.system import PipelineConfig, StatisticalRunner
    from repro.workloads import RateSchedule, paper_gaussian_substreams

    schedule = RateSchedule("uniform", dict.fromkeys("ABCD", 500.0))
    generators = {g.name: g for g in paper_gaussian_substreams()}
    config = PipelineConfig(sampling_fraction=0.1)
    with StatisticalRunner(config, schedule, generators) as runner:
        window = runner.run_window()
    print(window.approx_sum, window.exact_sum)

See ``examples/quickstart.py`` for the same tree built by hand from
Algorithm 1 calls.
"""

from repro.core import (
    ApproximateResult,
    ColumnarBatch,
    FractionBudget,
    ReservoirSampler,
    ThetaStore,
    WeightedBatch,
    whsamp_batches,
)

__version__ = "1.0.0"

__all__ = [
    "ApproximateResult",
    "ColumnarBatch",
    "FractionBudget",
    "ReservoirSampler",
    "ThetaStore",
    "WeightedBatch",
    "__version__",
    "whsamp_batches",
]
