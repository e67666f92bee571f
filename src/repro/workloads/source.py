"""Data sources: objects that emit item batches per interval.

A :class:`Source` ties a value generator (Gaussian, Poisson, taxi,
pollution, mixture) to an arrival rate, producing the per-interval item
batches that the pipeline's bottom layer ingests. Sources are how the
experiments express "8 source nodes producing the input data stream"
and the fluctuating-rate settings.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

from repro.core.columns import ColumnarBatch
from repro.core.fastpath import make_generator
from repro.errors import WorkloadError

__all__ = [
    "Source",
    "ItemGenerator",
    "SubstreamGenerator",
]


class ItemGenerator(Protocol):
    """Anything that can draw ``count`` records at a timestamp.

    Every built-in generator draws whole columns from a
    ``numpy.random.Generator`` (``draw_columns``). A :class:`Source`
    also takes a generator that instead has ``generate_columns(count,
    rng, emitted_at)``, fed the source's ``random.Random``; either hook
    returns a :class:`~repro.core.columns.ColumnarBatch`.
    """

    def draw_columns(
        self, count: int, gen, emitted_at: float = 0.0
    ) -> ColumnarBatch:
        """Draw ``count`` records from a numpy ``Generator``."""
        ...  # pragma: no cover - protocol


class SubstreamGenerator:
    """Base of the single-stratum generators: one value draw each.

    A subclass carries its stratum tag as ``name`` and its
    ``item_bytes``, and supplies ``_values(count, gen)`` — whole-column
    ``numpy.random.Generator`` draws.
    """

    name: str
    item_bytes: int

    def draw_columns(
        self, count: int, gen, emitted_at: float = 0.0
    ) -> ColumnarBatch:
        """Draw ``count`` values from a numpy ``Generator`` in vector ops."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return ColumnarBatch.single(
            self.name, self._values(count, gen), emitted_at, self.item_bytes
        )


class Source:
    """One logical data source with a fixed arrival rate.

    A generator with a ``draw_columns`` hook draws from one
    ``numpy.random.Generator`` the source seeds from its ``random.Random``,
    once; a generator with only ``generate_columns`` receives the
    ``random.Random`` itself. A generator with neither is rejected here.
    """

    def __init__(
        self,
        name: str,
        generator: ItemGenerator,
        rate_per_second: float,
        *,
        rng: random.Random | None = None,
    ) -> None:
        if not 0 <= rate_per_second < math.inf:
            raise WorkloadError(
                f"rate must be finite and >= 0, got {rate_per_second}"
            )
        self.name = name
        self.rate_per_second = float(rate_per_second)
        rng = rng if rng is not None else random.Random()
        draw = getattr(generator, "draw_columns", None)
        if draw is not None:
            self._draw, self._entropy = draw, make_generator(rng)
        else:
            draw = getattr(generator, "generate_columns", None)
            if draw is None:
                raise WorkloadError(
                    f"{type(generator).__name__} has neither draw_columns "
                    f"nor generate_columns"
                )
            self._draw, self._entropy = draw, rng
        self.items_emitted = 0
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

        Every record carries the one emission time ``interval_start``;
        the deployment simulator, which measures latency, spreads the
        records over the interval itself.
        """
        count = self._interval_count(interval_seconds)
        if count == 0:
            return ColumnarBatch.empty()
        batch = self._draw(count, self._entropy, interval_start)
        self.items_emitted += len(batch)
        return batch
