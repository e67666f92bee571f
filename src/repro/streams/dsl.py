"""Fluent topology builder on top of the Processor API.

The slice of the Kafka Streams DSL the paper's prototype (§IV) needs:
open a stream over input topics, plug a user-defined processor into
it, and terminate the branch into an output topic. Each call adds one
node to the low-level topology of :mod:`repro.streams.topology`.
"""

from __future__ import annotations

import itertools

from repro.streams.processor import Processor
from repro.streams.topology import Topology

__all__ = ["StreamBuilder", "KStream"]

_node_ids = itertools.count()


def _fresh(name: str) -> str:
    return f"{name}-{next(_node_ids)}"


class KStream:
    """A fluent handle over a branch of the topology under construction."""

    def __init__(self, builder: "StreamBuilder", parent: str) -> None:
        self._builder = builder
        self._parent = parent

    def process_with(self, processor: Processor) -> "KStream":
        """Plug a low-level processor into the fluent chain.

        This is the integration point the paper uses for its sampling
        module: a user-defined processor inside the high-level DSL.
        """
        name = _fresh(processor.name or "processor")
        self._builder.topology.add_processor(name, processor, [self._parent])
        return KStream(self._builder, name)

    def to(self, topic: str) -> None:
        """Terminate the branch into an output topic."""
        name = _fresh("sink")
        self._builder.topology.add_sink(name, topic, [self._parent])


class StreamBuilder:
    """Entry point of the DSL; owns the topology being assembled."""

    def __init__(self) -> None:
        self.topology = Topology()

    def stream(self, *topics: str) -> KStream:
        """Open a stream over one or more input topics."""
        name = _fresh("source")
        self.topology.add_source(name, list(topics))
        return KStream(self, name)

    def build(self) -> Topology:
        """Finish construction and return the topology."""
        return self.topology
