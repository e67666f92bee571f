"""Benchmark: regenerate Fig. 11 (real-world case studies)."""


def test_bench_fig11(figure_rows):
    """Asserts the two-dataset accuracy ordering and throughput gain."""
    accuracy, throughput = figure_rows("fig11")
    # Pollution values are more stable -> lower loss curve (paper §VI-B).
    low = accuracy[0.1]
    assert low["Brasov pollution loss"] < low["NYC taxi loss"]
    # Loss shrinks with the fraction on both datasets.
    assert accuracy[0.4]["NYC taxi loss"] < low["NYC taxi loss"] * 2.0

    # Paper: ~9-10x over native at the 10% fraction.
    assert throughput[0.1]["NYC taxi"] > 3.0 * throughput[0.1]["native"]
