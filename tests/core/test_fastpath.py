"""Backend parity tests for the vectorized sampling fast path.

Both backends must (a) preserve the Eq. 8 count invariant exactly
(``W_out * c~ == W_in * c``) and (b) produce statistically
indistinguishable inclusion probabilities. The distribution checks use
chi-squared statistics over repeated seeded runs with generous critical
values, so they are deterministic under the pinned seeds.
"""

import random

import pytest

from repro.core.fastpath import (
    BACKEND_AUTO,
    BACKEND_NUMPY,
    BACKEND_PYTHON,
    BACKENDS,
    batch_sample_indices,
    make_generator,
    numpy_available,
    reservoir_sample_indices,
    resolve_backend,
)
from repro.core.items import StreamItem, WeightedBatch
from repro.core.whs import whsamp, whsamp_batches
from repro.errors import SamplingError

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: Backends available in this environment.
AVAILABLE = [BACKEND_PYTHON] + ([BACKEND_NUMPY] if numpy_available() else [])

# Upper-tail chi-squared critical values at the 99.9 % level, so a
# correct sampler fails each check with probability ~1e-3 — and the
# seeds below are pinned, making the outcome reproducible.
CHI2_CRIT = {9: 27.88, 19: 43.82}


def chi_squared(observed, expected):
    """Pearson's statistic over parallel observed/expected sequences."""
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def items_for(substream: str, count: int) -> list[StreamItem]:
    return [StreamItem(substream, float(i)) for i in range(count)]


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_python_always_resolves(self):
        assert resolve_backend(BACKEND_PYTHON) == BACKEND_PYTHON

    def test_auto_matches_environment(self):
        expected = BACKEND_NUMPY if numpy_available() else BACKEND_PYTHON
        assert resolve_backend(BACKEND_AUTO) == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(SamplingError):
            resolve_backend("cython")

    def test_numpy_without_numpy_rejected(self, monkeypatch):
        import repro.core.fastpath as fastpath

        monkeypatch.setattr(fastpath, "_np", None)
        assert fastpath.resolve_backend(BACKEND_AUTO) == BACKEND_PYTHON
        with pytest.raises(SamplingError):
            fastpath.resolve_backend(BACKEND_NUMPY)

    def test_backends_constant_is_exhaustive(self):
        assert set(BACKENDS) == {BACKEND_AUTO, BACKEND_PYTHON, BACKEND_NUMPY}


# ----------------------------------------------------------------------
# Survivor-index kernel parity
# ----------------------------------------------------------------------
def survivors(backend: str, population: int, capacity: int,
              rng: random.Random) -> list[int]:
    """Algorithm 1's ``RS(S_i, N_i)`` index set on ``backend``, sorted."""
    if backend == BACKEND_NUMPY:
        gen = make_generator(rng)
        return batch_sample_indices(population, capacity, gen).tolist()
    return sorted(reservoir_sample_indices(population, capacity, rng))


@pytest.mark.parametrize("backend", AVAILABLE)
class TestReservoirParity:
    def test_under_capacity_keeps_everything(self, backend):
        assert survivors(backend, 20, 50, random.Random(1)) == list(range(20))

    def test_over_capacity_caps_and_counts(self, backend):
        assert len(survivors(backend, 500, 10, random.Random(2))) == 10

    def test_sample_is_subset_without_duplicates(self, backend):
        sample = survivors(backend, 300, 25, random.Random(3))
        assert len(set(sample)) == len(sample) == 25
        assert all(0 <= index < 300 for index in sample)

    def test_seeded_runs_are_deterministic(self, backend):
        def run():
            return survivors(backend, 400, 8, random.Random(99))

        assert run() == run()


# ----------------------------------------------------------------------
# Inclusion probability parity (chi-squared over repeated seeded runs)
# ----------------------------------------------------------------------
def inclusion_histogram(backend: str, *, runs: int, n: int, capacity: int,
                        buckets: int) -> list[int]:
    """How often each position-bucket of the stream gets sampled."""
    per_bucket = n // buckets
    counts = [0] * buckets
    for seed in range(runs):
        for index in survivors(backend, n, capacity, random.Random(10_000 + seed)):
            counts[index // per_bucket] += 1
    return counts


@pytest.mark.parametrize("backend", AVAILABLE)
def test_inclusion_probability_uniform(backend):
    """Every stream position is sampled with probability capacity/n."""
    runs, n, capacity, buckets = 300, 200, 20, 10
    counts = inclusion_histogram(
        backend, runs=runs, n=n, capacity=capacity, buckets=buckets
    )
    expected = [runs * capacity / buckets] * buckets
    statistic = chi_squared(counts, expected)
    assert statistic < CHI2_CRIT[buckets - 1], (backend, counts)


@requires_numpy
def test_backends_statistically_indistinguishable():
    """Two-sample chi-squared homogeneity across the two backends."""
    runs, n, capacity, buckets = 300, 200, 20, 10
    py = inclusion_histogram(
        BACKEND_PYTHON, runs=runs, n=n, capacity=capacity, buckets=buckets
    )
    np_ = inclusion_histogram(
        BACKEND_NUMPY, runs=runs, n=n, capacity=capacity, buckets=buckets
    )
    # Both histograms share the same total, so homogeneity reduces to
    # comparing each against the pooled mean of the pair.
    pooled = [(a + b) / 2 for a, b in zip(py, np_)]
    statistic = chi_squared(py, pooled) + chi_squared(np_, pooled)
    assert statistic < CHI2_CRIT[buckets - 1], (py, np_)


# ----------------------------------------------------------------------
# Eq. 8 count invariant through whsamp on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whsamp_preserves_count_invariant(backend, seed):
    """``sum(W_out * c~)`` recovers the exact arrival count."""
    rng = random.Random(seed)
    shape = {"a": 4000, "b": 350, "c": 17, "d": 1}
    items = [
        item
        for substream, count in shape.items()
        for item in items_for(substream, count)
    ]
    rng.shuffle(items)
    result = whsamp(items, 300, rng=rng, backend=backend)
    estimated = sum(batch.estimated_count for batch in result.batches)
    assert estimated == pytest.approx(sum(shape.values()))
    for batch in result.batches:
        assert batch.estimated_count == pytest.approx(shape[batch.substream])


@pytest.mark.parametrize("backend", AVAILABLE)
def test_whsamp_batches_invariant_with_input_weights(backend):
    """Eq. 8 composes across layers: W_out * c~ == W_in * c per group."""
    rng = random.Random(7)
    pairs = [
        WeightedBatch("a", 2.5, items_for("a", 900)),
        WeightedBatch("a", 4.0, items_for("a", 300)),
        WeightedBatch("b", 1.0, items_for("b", 50)),
    ]
    result = whsamp_batches(pairs, 120, rng=rng, backend=backend)
    by_group = [
        (batch.substream, batch.estimated_count) for batch in result.batches
    ]
    # Each (sub-stream, W_in) group preserves its own estimated count.
    expected = {("a", 2.5 * 900), ("a", 4.0 * 300), ("b", 1.0 * 50)}
    for substream, count in expected:
        assert any(
            batch.substream == substream
            and batch.estimated_count == pytest.approx(count)
            for batch in result.batches
        ), (substream, count, by_group)


@requires_numpy
def test_whsamp_estimates_agree_across_backends():
    """Backend choice does not bias the weighted SUM estimate."""
    stream = [StreamItem("a", 1.0)] * 5000 + [StreamItem("b", 10.0)] * 500
    exact = sum(item.value for item in stream)
    estimates = {}
    for backend in (BACKEND_PYTHON, BACKEND_NUMPY):
        total = 0.0
        for seed in range(40):
            result = whsamp(
                stream, 250, rng=random.Random(seed), backend=backend
            )
            total += sum(batch.estimated_sum for batch in result.batches)
        estimates[backend] = total / 40
    for backend, estimate in estimates.items():
        assert estimate == pytest.approx(exact, rel=0.05), backend
