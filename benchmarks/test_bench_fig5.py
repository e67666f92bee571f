"""Benchmark: regenerate Fig. 5 (accuracy loss vs sampling fraction)."""


def test_bench_fig5(figure_rows):
    """Both panels; asserts ApproxIoT's order-of-magnitude accuracy edge."""
    gaussian, poisson = (panel[0.1] for panel in figure_rows("fig5"))
    # Paper: 10x (Gaussian) and 30x (Poisson) at the 10% fraction.
    assert gaussian["SRS/ApproxIoT"] > 3.0
    assert poisson["SRS/ApproxIoT"] > 3.0
    # Paper: ApproxIoT loss bounded by ~0.035% / ~0.013%; allow the
    # smaller bench-scale sample sizes an order of magnitude of slack.
    assert gaussian["ApproxIoT loss"] < 1.0
    assert poisson["ApproxIoT loss"] < 1.0
