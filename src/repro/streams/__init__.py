"""Kafka-Streams-model processing engine.

The slice of Kafka Streams the paper's prototype (§IV) runs on: the
low-level Processor API (the integration point for the user-defined
sampling processor), a fluent builder that wires a processor between
a source topic and a sink topic, and a runtime that drives the
topology from broker topics.
"""

from repro.streams.dsl import KStream, StreamBuilder
from repro.streams.processor import Processor, ProcessorContext
from repro.streams.runtime import StreamsRuntime
from repro.streams.topology import SinkNode, SourceNode, Topology

__all__ = [
    "KStream",
    "Processor",
    "ProcessorContext",
    "SinkNode",
    "SourceNode",
    "StreamBuilder",
    "StreamsRuntime",
    "Topology",
]
