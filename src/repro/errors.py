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
