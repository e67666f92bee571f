"""Data sources: objects that emit item batches per interval.

A :class:`Source` ties a value generator (Gaussian, Poisson, taxi,
pollution, mixture) to an arrival rate, producing the per-interval item
batches that the pipeline's bottom layer ingests. Sources are how the
experiments express "8 source nodes producing the input data stream"
and the fluctuating-rate settings.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import BACKEND_NUMPY, make_generator, resolve_backend
from repro.core.items import StreamItem
from repro.errors import WorkloadError
from repro.workloads.rates import RateSchedule

__all__ = [
    "Source",
    "ItemGenerator",
    "SubstreamGenerator",
    "generate_columns",
    "sources_from_schedule",
]


class ItemGenerator(Protocol):
    """Anything that can generate ``count`` items at a timestamp.

    Generators may additionally implement two optional hooks, each
    returning a :class:`~repro.core.columns.ColumnarBatch`:
    ``generate_columns(count, rng, emitted_at)`` — the same scalar
    ``random.Random`` entropy, emitted as columns (see
    :func:`generate_columns`) — and ``draw_columns(count, gen,
    emitted_at)`` — whole-column draws from a
    ``numpy.random.Generator``, which a ``backend="numpy"``
    :class:`Source` prefers. A generator with neither keeps receiving
    the source's ``random.Random`` on every backend.
    """

    def generate(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        """Produce a batch of items."""
        ...  # pragma: no cover - protocol


def generate_columns(
    generator: ItemGenerator,
    count: int,
    rng: random.Random,
    emitted_at: float = 0.0,
) -> ColumnarBatch:
    """A generator's batch as columns, however the generator is built.

    Generators that implement ``generate_columns`` emit columns
    natively (no item objects ever exist); anything else falls back to
    transposing its object batch — same records, object-churn cost
    paid once at the seam.
    """
    native = getattr(generator, "generate_columns", None)
    if native is not None:
        return native(count, rng, emitted_at)
    return ColumnarBatch.from_items(generator.generate(count, rng, emitted_at))


class SubstreamGenerator:
    """Base of the single-stratum generators: one value draw per backend.

    A subclass carries its stratum tag as ``name`` and its
    ``item_bytes``, and supplies ``_scalar_values(count, rng)`` — one
    ``random.Random`` call sequence per record, the ``python``
    backend's bit-stable entropy — and
    ``_vector_values(count, gen)`` — whole-column
    ``numpy.random.Generator`` draws with the same distribution. Every
    batch shape is derived here, so ``generate`` is the columnar draw
    transposed rather than a second loop kept in step with it.
    """

    name: str
    item_bytes: int

    def _batch(self, draw, count: int, entropy, emitted_at: float) -> ColumnarBatch:
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return ColumnarBatch.single(
            self.name, draw(count, entropy), emitted_at, self.item_bytes
        )

    def generate_columns(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> ColumnarBatch:
        """Draw ``count`` values from ``rng``, one scalar call sequence each."""
        return self._batch(self._scalar_values, count, rng, emitted_at)

    def draw_columns(self, count: int, gen, emitted_at: float = 0.0) -> ColumnarBatch:
        """Draw ``count`` values from a numpy ``Generator`` in vector ops."""
        return self._batch(self._vector_values, count, gen, emitted_at)

    def generate(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        """:meth:`generate_columns`, transposed into items."""
        return self.generate_columns(count, rng, emitted_at).to_items()


class Source:
    """One logical data source with a fixed arrival rate.

    ``backend`` picks the entropy the source hands its generator:
    ``"python"`` (the default of the low-level primitives) passes the
    source's ``random.Random``; ``"numpy"`` seeds one
    ``numpy.random.Generator`` from it, once, and uses the generator's
    ``draw_columns`` hook where it has one.
    """

    def __init__(
        self,
        name: str,
        generator: ItemGenerator,
        rate_per_second: float,
        *,
        rng: random.Random | None = None,
        backend: str = "python",
    ) -> None:
        if rate_per_second < 0:
            raise WorkloadError(
                f"rate must be >= 0, got {rate_per_second}"
            )
        self.name = name
        self._generator = generator
        self.rate_per_second = float(rate_per_second)
        self._rng = rng if rng is not None else random.Random()
        self._draw_columns = (
            getattr(generator, "draw_columns", None)
            if resolve_backend(backend) == BACKEND_NUMPY
            else None
        )
        self._gen = (
            make_generator(self._rng)
            if self._draw_columns is not None
            else None
        )
        self.items_emitted = 0
        # ((count, interval), offsets): a steady source reuses its spread.
        self._spread: tuple = (None, None)
        # Centered at 0.5 so a lone interval rounds to nearest rather
        # than truncating; see _interval_count.
        self._carry = 0.5

    def _interval_count(self, interval_seconds: float) -> int:
        """Items due this interval, carrying the fractional remainder.

        ``rate * interval`` is rarely an integer; rounding it per call
        silently drops (or invents) volume — a 0.4 items/s source
        would emit nothing forever, and a 0.6 items/s source would
        emit 67% over schedule. The fractional remainder is carried
        into the next interval instead, so long-run emitted counts
        track the schedule exactly. The carry starts at one half so a
        single interval still rounds to nearest — integer-rate sources
        are unchanged, fractional first windows round half *up* (the
        historical ``int(round(...))`` rounded half-integer ties to
        even) — and thereafter the running total stays within one item
        of ``rate * elapsed``.
        """
        if interval_seconds <= 0:
            raise WorkloadError(
                f"interval must be positive, got {interval_seconds}"
            )
        due = self.rate_per_second * interval_seconds + self._carry
        count = int(due)
        self._carry = due - count
        return count

    def emit_interval_columns(
        self, interval_start: float, interval_seconds: float
    ) -> ColumnarBatch:
        """Produce this source's batch for one interval.

        Records get emission timestamps spread uniformly over the
        interval (one vector op) so latency accounting sees realistic
        in-interval arrival spread.
        """
        count = self._interval_count(interval_seconds)
        if count == 0:
            return ColumnarBatch.empty()
        if self._draw_columns is not None:
            batch = self._draw_columns(count, self._gen, interval_start)
        else:
            batch = generate_columns(
                self._generator, count, self._rng, interval_start
            )
        key = (len(batch), interval_seconds)
        if key != self._spread[0]:
            self._spread = (key, batch.spread_offsets(interval_seconds))
        batch = batch.with_timestamps_from(interval_start, self._spread[1])
        self.items_emitted += len(batch)
        return batch


class _CallableGenerator:
    """Adapter from a plain callable to the ItemGenerator protocol."""

    def __init__(
        self,
        fn: Callable[[int, random.Random, float], list[StreamItem]],
    ) -> None:
        self._fn = fn

    def generate(
        self, count: int, rng: random.Random, emitted_at: float = 0.0
    ) -> list[StreamItem]:
        return self._fn(count, rng, emitted_at)


def sources_from_schedule(
    schedule: RateSchedule,
    generators: dict[str, ItemGenerator],
    *,
    seed: int = 0,
) -> list[Source]:
    """One source per sub-stream of a rate schedule.

    Raises :class:`WorkloadError` when the schedule references a
    sub-stream with no generator.
    """
    sources: list[Source] = []
    seed_rng = random.Random(seed)
    for substream, rate in schedule.rates.items():
        if substream not in generators:
            raise WorkloadError(
                f"no generator supplied for sub-stream {substream!r}"
            )
        sources.append(
            Source(
                f"source-{substream}",
                generators[substream],
                rate,
                rng=random.Random(seed_rng.getrandbits(64)),
            )
        )
    return sources
