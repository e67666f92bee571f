"""Processing topology: a DAG of sources, processors and sinks.

The builder mirrors Kafka Streams' ``Topology``: ``add_source`` binds a
node to input topics, ``add_processor`` wires user processors beneath
parents, ``add_sink`` terminates a branch into an output topic. The
runtime (``repro.streams.runtime``) pumps records from a broker through
the DAG.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TopologyError
from repro.streams.processor import Processor

__all__ = ["Topology", "SinkNode", "SourceNode"]


class SourceNode(Processor):
    """Entry node: records fetched from its topics are injected here."""

    def __init__(self, name: str, topics: list[str]) -> None:
        super().__init__(name)
        self.topics = topics


class SinkNode(Processor):
    """Exit node: forwards every record into an output topic."""

    def __init__(
        self,
        name: str,
        topic: str,
        emit: Callable[[str, Any, Any], None],
    ) -> None:
        super().__init__(name)
        self.topic = topic
        self._emit = emit

    def process(self, key: Any, value: Any) -> None:
        """Emit the record to the sink's output topic."""
        self._emit(self.topic, key, value)


class Topology:
    """A named DAG of processors with validation."""

    def __init__(self) -> None:
        self._nodes: dict[str, Processor] = {}
        self._sources: list[SourceNode] = []
        self._emit_hook: Callable[[str, Any, Any], None] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_source(self, name: str, topics: list[str]) -> "Topology":
        """Add a source node subscribed to the given topics."""
        if not topics:
            raise TopologyError(f"source {name!r} needs at least one topic")
        node = SourceNode(name, list(topics))
        self._register(name, node, parents=[])
        self._sources.append(node)
        return self

    def add_processor(
        self,
        name: str,
        processor: Processor,
        parents: list[str],
    ) -> "Topology":
        """Add a processor beneath one or more parents."""
        if not parents:
            raise TopologyError(f"processor {name!r} needs at least one parent")
        processor.name = name
        self._register(name, processor, parents)
        return self

    def add_sink(self, name: str, topic: str, parents: list[str]) -> "Topology":
        """Add a sink writing every received record to ``topic``."""
        if not parents:
            raise TopologyError(f"sink {name!r} needs at least one parent")

        def emit(out_topic: str, key: Any, value: Any) -> None:
            if self._emit_hook is None:
                raise TopologyError(
                    "topology is not attached to a runtime; sink cannot emit"
                )
            self._emit_hook(out_topic, key, value)

        node = SinkNode(name, topic, emit)
        self._register(name, node, parents)
        return self

    def _register(self, name: str, node: Processor, parents: list[str]) -> None:
        if name in self._nodes:
            raise TopologyError(f"duplicate node name: {name!r}")
        for parent in parents:
            if parent not in self._nodes:
                raise TopologyError(
                    f"parent {parent!r} of {name!r} is not defined yet"
                )
        self._nodes[name] = node
        for parent in parents:
            self._nodes[parent].context.add_child(node)

    # ------------------------------------------------------------------
    # Introspection / runtime hooks
    # ------------------------------------------------------------------
    @property
    def sources(self) -> list[SourceNode]:
        """All source nodes."""
        return list(self._sources)

    def node(self, name: str) -> Processor:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"no such node: {name!r}") from None

    @property
    def node_names(self) -> list[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    def attach_emit_hook(self, hook: Callable[[str, Any, Any], None]) -> None:
        """Bind sink output to a runtime (producer) callback."""
        self._emit_hook = hook

    def init_all(self) -> None:
        """Run every node's one-time init."""
        for node in self._nodes.values():
            node.init()

    def close_all(self) -> None:
        """Run every node's tear-down."""
        for node in self._nodes.values():
            node.close()

    def punctuate_all(self, stream_time: float) -> None:
        """Advance stream time on every node (window boundaries)."""
        for node in self._nodes.values():
            node.context.stream_time = stream_time
            node.punctuate(stream_time)
