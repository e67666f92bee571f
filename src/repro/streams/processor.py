"""Low-level Processor API (the Kafka Streams model).

A *processor* receives keyed records one at a time, may keep state, and
forwards zero or more records to its downstream children through a
:class:`ProcessorContext`. The paper implements its sampling module as
exactly such a user-defined processor; ``examples/streaming_sampler.py``
plugs a weighted-hierarchical-sampling processor into this API.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Processor", "ProcessorContext"]


class ProcessorContext:
    """Runtime services handed to a processor: forwarding and time."""

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self._children: list[Processor] = []
        self.stream_time = 0.0
        #: Resolved sampling backend ("python" / "numpy") for sampling
        #: processors plugged into the DSL; set by the runtime before
        #: ``init()`` runs (see ``StreamsRuntime(sampling_backend=...)``).
        self.sampling_backend = "python"

    def add_child(self, child: "Processor") -> None:
        """Wire a downstream processor (topology construction only)."""
        self._children.append(child)

    def forward(self, key: Any, value: Any) -> None:
        """Send a record to every downstream child.

        Stream time rides along with the record so windowed processors
        deeper in the DAG assign it to the right window.
        """
        for child in self._children:
            child.context.stream_time = self.stream_time
            child.process(key, value)


class Processor:
    """Base class for stream processors.

    Subclasses override :meth:`process`; :meth:`init` runs once when the
    topology starts and :meth:`close` when it stops (punctuation-style
    periodic work is driven by the runtime calling :meth:`punctuate`).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.context: ProcessorContext = ProcessorContext(name)

    def init(self) -> None:
        """One-time setup before any record is processed."""

    def process(self, key: Any, value: Any) -> None:
        """Handle one record. Default: pass it through unchanged."""
        self.context.forward(key, value)

    def punctuate(self, stream_time: float) -> None:
        """Periodic hook (window boundaries, flushes)."""

    def close(self) -> None:
        """Tear-down after the last record."""

