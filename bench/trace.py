"""Spans recorded from outside the program, around calls into its layers.

The benchmark owns every clock: a span is opened in ``bench/`` code
just before a public function of the layer is called and closed when
it returns (clocks inside the program are a later change). Spans stay
in memory and are written out once, when the traced worker ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from statistics import median
from time import perf_counter
from typing import Iterator

#: The span every traced op is wrapped in; its direct children are the
#: layer spans ``trace.coverage`` adds up.
OP_SPAN = "op"


class Tracer:
    """An in-memory list of ``{name, start, end, parent, op}`` spans.

    ``parent`` is the index of the enclosing span (``None`` for an op's
    root span); ``op`` numbers the traced ops, so the spans of one op
    share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op = -1
        self._op_seconds: list[float] = []

    @contextmanager
    def op(self) -> Iterator[None]:
        """Wrap one traced op in its root span."""
        self._op += 1
        self._op_seconds.append(0.0)
        start = perf_counter()
        with self.span(OP_SPAN):
            yield
        self._op_seconds[self._op] += perf_counter() - start

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the op's clock around harness work that is not the op's.

        Re-running a stage to tell its share apart is such work: it is
        recorded as a span, but the traced op is not charged for it.
        """
        start = perf_counter()
        try:
            yield
        finally:
            self._op_seconds[self._op] -= perf_counter() - start

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed call as a child of the innermost open span."""
        index = self._begin(name, perf_counter())
        try:
            yield
        finally:
            self.spans[index]["end"] = perf_counter()
            self._open.pop()

    def add(
        self, name: str, start: float, end: float, parent: int | None = None
    ) -> None:
        """Record a span whose boundaries were observed elsewhere.

        ``parent`` names the span it belongs under when that is not the
        innermost open one (a stage re-run after the call it is part of).
        """
        index = self._begin(name, start)
        self.spans[index]["end"] = end
        if parent is not None:
            self.spans[index]["parent"] = parent
        self._open.pop()

    def _begin(self, name: str, start: float) -> int:
        self.spans.append({
            "name": name,
            "start": start,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self._op,
        })
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    # ------------------------------------------------------------------
    # Reading the trace back
    # ------------------------------------------------------------------
    def op_seconds(self) -> list[float]:
        """Per traced op, its duration without the paused stretches."""
        return list(self._op_seconds)

    def per_op_seconds(self, prefix: str) -> list[float]:
        """Per traced op, the summed duration of spans named ``prefix*``."""
        totals = [0.0] * (self._op + 1)
        for span in self.spans:
            if span["name"].startswith(prefix):
                totals[span["op"]] += span["end"] - span["start"]
        return totals

    def median_ms(self, prefix: str) -> float:
        """Median over traced ops of :meth:`per_op_seconds`, in ms."""
        return 1e3 * median(self.per_op_seconds(prefix))

    def covered_seconds(self) -> list[float]:
        """Per traced op, the time its top-level layer spans account for."""
        totals = [0.0] * (self._op + 1)
        for span in self.spans:
            parent = span["parent"]
            if parent is not None and self.spans[parent]["name"] == OP_SPAN:
                totals[span["op"]] += span["end"] - span["start"]
        return totals


class TimedTransport:
    """A ``Transport`` that counts sends and timestamps layer boundaries.

    Wraps the program's transport behind its public protocol
    (``register`` / ``send`` / ``collect`` / ``has_pending`` /
    ``close``). The engine drains the tree bottom-up, so the first
    ``collect`` of each layer is where the previous stage (inject, or
    the layer below) has made its last send: those instants are the
    stage boundaries of one window, kept in ``marks``.
    """

    def __init__(self, inner, layers: dict[str, str]) -> None:
        self._inner = inner
        self._layers = layers
        self.marks: list[tuple[str, float]] = []
        self.sends = 0
        self.items_in = dict.fromkeys(layers.values(), 0)

    def take_marks(self) -> list[tuple[str, float]]:
        """The layer boundaries seen since the last call."""
        marks, self.marks = self.marks, []
        return marks

    def register(self, node_name: str) -> None:
        self._inner.register(node_name)

    def send(self, src: str, dst: str, batch) -> None:
        self.sends += 1
        self.items_in[self._layers[dst]] += len(batch)
        self._inner.send(src, dst, batch)

    def collect(self, dst: str) -> list:
        layer = self._layers[dst]
        if not self.marks or self.marks[-1][0] != layer:
            self.marks.append((layer, perf_counter()))
        return self._inner.collect(dst)

    def has_pending(self) -> bool:
        return self._inner.has_pending()

    def close(self) -> None:
        self._inner.close()
