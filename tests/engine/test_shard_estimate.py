"""One root estimate per window, made where Theta is final.

Worker shards sample a window into Theta and ship it unestimated
(``EngineRunner.sample_window``); the parent estimates once over the
merged store in ``_merge_slot``. Two contracts, both deterministic:

* a *counter*: a 2-shard ``run(4)`` calls ``estimate_sum_with_error``
  exactly 4 times, all in the parent (it used to be 12: one per shard
  per window, computed and dropped, plus the merge);
* *outputs did not move*: process shards ≡ their inline twin (bit for
  bit) ≡ values pinned from the commit before the estimate moved — static, adaptive,
  and a scenario with a total-blackout window, where the empty-Theta
  answer now comes from the merge alone.
"""

import os

import pytest

from repro.core.fastpath import numpy_available
from repro.engine import runner as runner_module
from repro.engine.sharding import ShardedEngineRunner
from repro.scenarios.events import LinkDegrade
from repro.scenarios.scenario import Scenario
from repro.system.config import PipelineConfig
from repro.workloads.rates import RateSchedule
from repro.workloads.synthetic import paper_gaussian_substreams

GENS = {g.name: g for g in paper_gaussian_substreams()}
SCHEDULE = RateSchedule(
    "shard-estimate", {"A": 300.0, "B": 300.0, "C": 300.0, "D": 300.0}
)
WINDOWS = 4

#: Both root uplinks straggle window 1's batches into window 2, so the
#: root sees nothing at all in window 1 (a blackout) and double in 2.
BLACKOUT = Scenario(
    "blackout", "both root uplinks one window late, once", WINDOWS,
    (LinkDegrade(1, 2, nodes=("l2-0", "l2-1"), delay_windows=1),),
)

#: case → (budget controller, scenario).
CASES = {
    "static": ("static", None),
    "adaptive": ("variance_aware", None),
    "blackout": ("static", BLACKOUT),
}

#: Per merged window: items at root, root budget, SRS sum, estimate,
#: error bound — taken on the parent commit (shards still estimating).
#: The numpy rows assume numpy 2.x ``Generator`` streams.
GOLDEN = {
    ("static", "python"): [
        (240, 240, 36716501.21505581, 33064638.540956173, 329097.2479312817),
        (240, 240, 33913853.88088333, 33118848.610570602, 325609.4550707165),
        (240, 240, 39029594.314093284, 33481182.873982064, 322195.11838502315),
        (240, 240, 36270853.81033697, 33305124.468075223, 355640.07657814067),
    ],
    ("adaptive", "python"): [
        (240, 240, 36716501.21505581, 33064638.540956173, 329097.2479312817),
        (240, 240, 35160482.51425733, 33359978.173876256, 252685.60885553333),
        (240, 240, 28438689.65377701, 33297758.476997737, 218442.94587903816),
        (240, 240, 37331109.63762052, 33325315.400647737, 281874.51884149935),
    ],
    ("blackout", "python"): [
        (240, 240, 36716501.21505581, 33064638.540956173, 329097.2479312817),
        (0, 240, 33913853.88088333, 0.0, 0.0),
        (240, 240, 34876340.42333223, 66854917.93605349, 673172.7805867991),
        (240, 240, 38993116.77687773, 33411321.07754337, 360043.9599733089),
    ],
    ("static", "numpy"): [
        (240, 240, 35266425.02221469, 33059061.12416918, 371689.0095740705),
        (240, 240, 33599199.17665999, 33180296.9888433, 358003.55320463725),
        (240, 240, 35372224.51969132, 33635844.21440915, 324943.7673621847),
        (240, 240, 33329224.372547835, 33259321.968284763, 401686.7497549097),
    ],
    ("adaptive", "numpy"): [
        (240, 240, 35266425.02221469, 33059061.12416918, 371689.0095740705),
        (240, 240, 33599199.17665999, 33204980.380567595, 274217.7483461416),
        (240, 240, 35372224.51969132, 33297044.284876257, 271380.7598993029),
        (240, 240, 33329224.372547835, 33285015.782367498, 291352.7725933),
    ],
    ("blackout", "numpy"): [
        (240, 240, 35266425.02221469, 33059061.12416918, 371689.0095740705),
        (0, 240, 33599199.17665999, 0.0, 0.0),
        (240, 240, 35666478.44362259, 66638281.49583414, 747508.7353198818),
        (240, 240, 29285113.637254827, 33294539.883995805, 386560.17846165353),
    ],
}
#: The draws are pinned bit for bit; summation order is not part of the
#: contract (it differs between numpy and ``array('d')`` column storage).
SUM_TOLERANCE = 1e-12

BACKENDS = [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy backend not installed"
    )),
]


def sharded(case, backend, *, inline):
    controller, scenario = CASES[case]
    config = PipelineConfig(
        sampling_fraction=0.2, seed=13, backend=backend,
        workers=2, budget_controller=controller,
    )
    return ShardedEngineRunner(
        config, SCHEDULE, GENS, inline=inline, scenario=scenario
    )


def window_key(w):
    return (
        w.window_index, w.items_emitted, w.items_sampled, w.items_dropped,
        w.sample_budget, w.exact_sum, w.srs_sum, w.approx_sum.value,
        w.approx_sum.error, w.approx_sum.variance,
        w.approx_sum.sampled_items,
    )


@pytest.fixture
def estimate_calls(monkeypatch):
    """Count ``estimate_sum_with_error`` calls; fail any outside this pid.

    Forked shards inherit the patch, so a shard that estimated would
    raise inside its process and fail the round loudly.
    """
    real = runner_module.estimate_sum_with_error
    parent = os.getpid()
    calls = []

    def counting(theta, confidence=0.95):
        assert os.getpid() == parent, "a worker shard estimated its Theta"
        calls.append(len(theta))
        return real(theta, confidence)

    # Every engine estimate, the merge's included, goes through
    # runner._estimate_window, which looks the name up here.
    monkeypatch.setattr(runner_module, "estimate_sum_with_error", counting)
    return calls


class TestOneEstimatePerWindow:
    def test_inline_run_estimates_once_per_window(self, estimate_calls):
        outcome = sharded("static", "python", inline=True).run(WINDOWS)
        assert len(outcome.windows) == WINDOWS
        assert len(estimate_calls) == WINDOWS
        # Each call saw the merged store: both shards' root batches.
        assert all(pairs == 8 for pairs in estimate_calls)

    def test_process_run_estimates_in_the_parent_only(self, estimate_calls):
        with sharded("static", "python", inline=False) as runner:
            outcome = runner.run(WINDOWS)
        assert len(outcome.windows) == WINDOWS
        assert len(estimate_calls) == WINDOWS

    def test_blackout_window_reaches_no_estimator(self, estimate_calls):
        outcome = sharded("blackout", "python", inline=True).run(WINDOWS)
        assert len(estimate_calls) == WINDOWS - 1
        dark = outcome.windows[1]
        assert (dark.items_sampled, dark.approx_sum.value) == (0, 0.0)
        assert dark.approx_sum.sampled_items == 0
        assert dark.items_emitted > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_processes_equal_inline_twin_equal_pinned_values(case, backend):
    inline = sharded(case, backend, inline=True).run(WINDOWS)
    with sharded(case, backend, inline=False) as runner:
        processes = runner.run(WINDOWS)
    assert [window_key(w) for w in processes.windows] == [
        window_key(w) for w in inline.windows
    ]
    for window, (at_root, budget, *sums) in zip(
        inline.windows, GOLDEN[case, backend], strict=True
    ):
        assert (window.items_sampled, window.sample_budget) == (at_root, budget)
        assert (
            window.srs_sum, window.approx_sum.value, window.approx_sum.error
        ) == pytest.approx(tuple(sums), rel=SUM_TOLERANCE)
