"""A perfect storm: composing a custom dynamic-workload scenario.

Walks through everything the scenario engine can throw at a run at
once — a flash crowd ramping in while the population mix drifts, an
L1 edge node churning out mid-burst, and a lossy straggler uplink —
then runs it end-to-end and prints the per-window quality-over-time
table. Watch three things in the output:

* ``loss`` vs ``bound`` — ApproxIoT stays inside its reported error
  bound through the burst, the drift and the churn, because weights
  rescale wherever reservoirs overflow (Eqs. 1-2) and the Eq. 8 count
  invariant survives re-parenting;
* the windows where the degraded uplink *destroys* batches
  (``dropped`` > 0) or delivers them a window late — no estimator can
  stay inside its bound about data it never saw, so those windows
  spike, and recover the moment the link heals;
* ``srs loss`` — the coin-flip baseline wobbles an order of magnitude
  harder through the whole storm.

The same scenario runs unchanged at any ``workers`` count — state is
a pure function of the window index, so every worker shard replays
the identical timeline.

Run:  python examples/scenario_storm.py
"""

from repro.experiments.base import gaussian_generators, uniform_schedule
from repro.scenarios import (
    LinkDegrade,
    NodeChurn,
    RateBurst,
    RateRamp,
    Scenario,
    SkewDrift,
)
from repro.system import PipelineConfig, ScenarioRunner


def build_storm() -> Scenario:
    """Every event type at once, staggered across 16 windows."""
    return Scenario(
        name="storm",
        description="flash crowd + skew drift + churn + lossy straggler",
        windows=16,
        events=(
            # The crowd arrives: ramp to 3x over two windows, hold,
            # then fall away.
            RateRamp(3, 5, 1.0, 3.0),
            RateBurst(5, 9, 3.0),
            RateRamp(9, 11, 3.0, 1.0),
            # Meanwhile the population drifts toward sub-stream A
            # (which SRS then over-represents while C and D thin out).
            SkewDrift(4, 12, to_shares={"A": 0.6, "B": 0.2, "C": 0.15,
                                        "D": 0.05}),
            # An L1 edge node dies mid-burst; its two sources re-parent
            # to the next live ancestor until it comes back.
            NodeChurn(6, 10, ("l1-1",)),
            # And two uplinks brown out: source-6 destroys 40% of its
            # batches; source-7 delivers every batch one window late.
            # (A single LinkDegrade combining loss= and delay_windows=
            # would drop first and delay the survivors.)
            LinkDegrade(7, 11, ("source-6",), loss=0.4),
            LinkDegrade(7, 11, ("source-7",), delay_windows=1),
        ),
    )


def main() -> None:
    scenario = build_storm()
    config = PipelineConfig(sampling_fraction=0.15, seed=23)
    schedule = uniform_schedule(scale=0.02)  # 500 items/s per sub-stream
    with ScenarioRunner(
        config, schedule, gaussian_generators(), scenario
    ) as runner:
        outcome = runner.run()
    print(outcome.report())
    print()
    print(outcome.summary())
    degraded = [w for w in outcome.windows if w.items_dropped > 0]
    if degraded:
        print(
            f"\nwindows with destroyed data: "
            f"{[w.window for w in degraded]} — loss spikes there are "
            f"the point: the estimator cannot bound what it never saw."
        )


if __name__ == "__main__":
    main()
