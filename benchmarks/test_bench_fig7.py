"""Benchmark: regenerate Fig. 7 (bandwidth saving vs sampling fraction)."""


def test_bench_fig7(figure_rows):
    """Asserts saving ~= 1 - fraction on the inter-layer links."""
    (points,) = figure_rows("fig7")
    for fraction in (0.1, 0.4, 0.8):
        point = points[fraction]
        expected = 100.0 * (1.0 - fraction)
        assert abs(point["ApproxIoT saving"] - expected) < 10.0
        assert abs(point["SRS saving"] - expected) < 10.0
