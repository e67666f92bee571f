"""Benchmark: regenerate Fig. 10 (fluctuating rates and extreme skew)."""


def test_bench_fig10(figure_rows):
    """Asserts ApproxIoT's win in every setting and under extreme skew."""
    gaussian, poisson, skew = figure_rows("fig10")
    for settings in (gaussian, poisson):
        for setting, point in settings.items():
            assert point["ApproxIoT loss"] < point["SRS loss"], setting

    low = skew[0.1]
    # Paper: up to 2600x at the 10% fraction; require >= two orders.
    assert low["SRS loss"] > 100 * low["ApproxIoT loss"]
    assert low["ApproxIoT loss"] < 0.5
