"""In-memory Kafka-model pub/sub substrate.

The paper's prototype (§IV) pipelines sampled sub-streams between edge
layers through Apache Kafka topics, with WHSamp running as a Kafka
Streams processor. This subpackage provides what
:mod:`repro.streams` needs of that layer — append-only partition
logs, topics, a broker with consumer-group coordination, buffering
producers and polling consumers — implemented from scratch so the
reproduction has no external dependencies.

:mod:`repro.broker.records` also hosts the sharded engine's binary
codec for weighted batches.
"""

from repro.broker.broker import Broker, GroupState
from repro.broker.consumer import Consumer
from repro.broker.log import PartitionLog
from repro.broker.producer import Producer
from repro.broker.records import ConsumedRecord, Record
from repro.broker.topic import Topic

__all__ = [
    "Broker",
    "ConsumedRecord",
    "Consumer",
    "GroupState",
    "PartitionLog",
    "Producer",
    "Record",
    "Topic",
]
