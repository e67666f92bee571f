"""Benchmark: regenerate Fig. 6 (throughput vs sampling fraction)."""


def test_bench_fig6(figure_rows):
    """Asserts the 1/fraction throughput scaling and low overhead."""
    (points,) = figure_rows("fig6")
    # Paper: 9.9x at 10%, 1.3x at 80%; shape, not absolute numbers.
    assert points[0.1]["speedup"] > 4.0
    assert 1.0 < points[0.8]["speedup"] < 4.0
    # At 100% both sampled systems match native (low sampling overhead).
    full = points[1.0]
    assert abs(full["ApproxIoT"] - full["Native"]) < 0.5 * full["Native"]
    # ApproxIoT ~ SRS across the sweep.
    low = points[0.1]
    assert abs(low["ApproxIoT"] - low["SRS"]) < 0.5 * low["SRS"]
