"""Unified execution engine: one pipeline, many transports and modes.

The engine separates *what a run is* from *how it executes*:

* :mod:`repro.engine.pipeline` assembles the node graph once —
  sources, per-node budgets, seeded random streams — from a
  :class:`~repro.system.config.PipelineConfig` and a rate schedule.
* :mod:`repro.engine.transport` moves weighted batches between nodes:
  in-process callbacks (statistical runs) or simnet-backed broker
  links (deployment runs).
* :mod:`repro.engine.runner` is the single windowed run loop with the
  paper's three strategies (approxiot / srs / native).
* :mod:`repro.engine.sharding` scales that loop across cores: a shard
  planner splits the rates into equal per-worker shares, each shard
  runs the loop in its own OS process, and per-shard Theta state is
  merged at the root (§III-E made physical).
* :mod:`repro.engine.shm` is the sharded loop's zero-copy IPC plane:
  per-shard shared-memory segments carry the Theta payload bytes while
  only ``(sequence, offset, length)`` descriptors cross the Pipe
  (picked by the code, not configured: the pipe codec wherever shared
  memory or fork is unavailable, and per slot for an oversized frame).

The public runners in :mod:`repro.system` are thin facades over this
package: the :class:`~repro.system.statistical.StatisticalRunner`
drives :class:`EngineRunner` directly, and the
:class:`~repro.system.deployment.DeploymentSimulator` drives the same
pipeline and sampling step from a discrete-event clock.
"""

from repro.engine.pipeline import Pipeline, build_pipeline
from repro.engine.runner import (
    ApproxIoTWindow,
    EngineRunner,
    RunOutcome,
    WindowOutcome,
    accuracy_loss,
    sample_interval,
)
from repro.engine.sharding import (
    ShardIpcStats,
    ShardPlan,
    ShardedEngineRunner,
    plan_shards,
)
from repro.engine.transport import (
    BrokerTransport,
    InProcessTransport,
    SimnetBrokerTransport,
    Transport,
    topic_for,
)

__all__ = [
    "ApproxIoTWindow",
    "BrokerTransport",
    "EngineRunner",
    "InProcessTransport",
    "Pipeline",
    "RunOutcome",
    "ShardIpcStats",
    "ShardPlan",
    "ShardedEngineRunner",
    "SimnetBrokerTransport",
    "Transport",
    "WindowOutcome",
    "accuracy_loss",
    "build_pipeline",
    "plan_shards",
    "sample_interval",
    "topic_for",
]
