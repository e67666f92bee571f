"""Exception hierarchy for the ApproxIoT reproduction.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch one base class. Subsystems define narrower types
here rather than in their own modules so the hierarchy stays visible in
a single place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class SamplingError(ReproError):
    """A sampling primitive was misused (e.g. non-positive reservoir)."""


class EstimationError(ReproError):
    """An estimator could not produce a result (e.g. empty sample)."""


class BrokerError(ReproError):
    """Base class for pub/sub substrate errors."""


class TopicExistsError(BrokerError):
    """A topic with the requested name already exists."""


class UnknownTopicError(BrokerError):
    """A produce/fetch referenced a topic that does not exist."""


class UnknownPartitionError(BrokerError):
    """A produce/fetch referenced a partition that does not exist."""


class OffsetOutOfRangeError(BrokerError):
    """A fetch requested an offset outside the log's range."""


class ConsumerGroupError(BrokerError):
    """Invalid consumer-group operation (e.g. unknown member)."""


class StreamsError(ReproError):
    """Base class for stream-engine errors."""


class TopologyError(StreamsError):
    """The processing topology is malformed (cycle, dangling node...)."""


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class ClockError(SimulationError):
    """An event was scheduled in the past or the clock was misused."""


class NetworkError(SimulationError):
    """The simulated network was misconfigured or misaddressed."""


class TreeError(ReproError):
    """The logical sampling tree is malformed."""


class PipelineError(ReproError):
    """The assembled system pipeline was driven incorrectly."""


class ShardTimeoutError(PipelineError):
    """A worker shard missed its watchdog deadline (hung or stalled)."""


class InjectedFaultError(PipelineError):
    """An injected fault fired inside a worker shard (test harness)."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""
