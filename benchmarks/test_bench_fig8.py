"""Benchmark: regenerate Fig. 8 (latency vs sampling fraction)."""


def test_bench_fig8(figure_rows):
    """Asserts native saturation latency vs sampled low latency."""
    (points,) = figure_rows("fig8")
    point = points[0.1]
    # Paper: ~6x latency speedup over native at the 10% fraction.
    assert point["speedup"] > 2.0
    assert point["Native (s)"] > point["SRS (s)"]
