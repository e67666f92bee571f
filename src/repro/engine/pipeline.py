"""Pipeline assembly — the node graph built once, shared by all modes.

Both execution engines (the algorithmic :class:`StatisticalRunner` and
the discrete-event :class:`DeploymentSimulator`) run the same logical
object: a tree of sampling nodes fed by rate-scheduled sources, each
node holding a per-interval sample budget derived from the cost
function. :func:`build_pipeline` materialises that object exactly once
per run — sources wired to sub-streams, per-node budgets sized from
subtree rates, the sampling backend resolved — so the facades never
re-derive any of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cost import FractionBudget
from repro.core.fastpath import BACKEND_NUMPY, make_generator
from repro.core.srs import CoinFlipSampler
from repro.core.stratified import AllocationPolicy
from repro.errors import PipelineError
from repro.topology.tree import LogicalTree, TreeNode
from repro.workloads.rates import RateSchedule
from repro.workloads.source import ItemGenerator, Source

if TYPE_CHECKING:  # circular at runtime: repro.system facades import us
    from repro.core.columns import ColumnarBatch
    from repro.system.config import PipelineConfig

__all__ = ["Pipeline", "build_pipeline"]


@dataclass(slots=True)
class Pipeline:
    """One assembled run: tree + sources + budgets + resolved backend.

    Attributes:
        config: The run's configuration (immutable).
        tree: The logical tree the run executes on.
        backend: The sampling backend, resolved once at assembly
            (``config.resolved_backend`` cached for the whole run).
        rng: The run's random source. Sources received derived seeds
            from it during assembly (on ``numpy`` each seeds its own
            ``numpy.random.Generator`` from that, once); on ``python``
            every later sampling decision draws from it in order.
        gen: The run's one ``numpy.random.Generator``, seeded from
            ``rng`` after the sources' seeds and consumed in execution
            order by every reservoir draw and coin flip — no node or
            window builds another. ``None`` on ``python``.
        sources: One :class:`~repro.workloads.source.Source` per source
            node, keyed by node name.
        source_rates: Per-source emission rate (items/second).
        budgets: Per-interval sample budget for every sampling node,
            sized so the node passes on ``sampling_fraction`` of its
            subtree's original volume.
        source_substreams: The sub-stream each source node produces —
            the round-robin ownership chosen at assembly. Scenario
            state (per-sub-stream rate modulation, skew drift) is
            applied per source through this map.
        allocation_override: A ``getSampleSize`` policy installed by a
            budget controller for the *next* window, superseding
            ``config.allocation_policy`` while set. ``None`` (the
            default, and the static controller's permanent state) runs
            the config policy bit-for-bit.
    """

    config: PipelineConfig
    tree: LogicalTree
    backend: str
    rng: random.Random
    gen: object = None
    sources: dict[str, Source] = field(default_factory=dict)
    source_rates: dict[str, float] = field(default_factory=dict)
    budgets: dict[str, int] = field(default_factory=dict)
    source_substreams: dict[str, str] = field(default_factory=dict)
    allocation_override: AllocationPolicy | None = None

    def budget(self, node_name: str) -> int:
        """A sampling node's per-interval sample budget."""
        try:
            return self.budgets[node_name]
        except KeyError:
            raise PipelineError(
                f"no budget for node {node_name!r}; is it a sampling node?"
            ) from None

    def budgets_for_fraction(self, fraction: float) -> dict[str, int]:
        """Per-node budgets for a sampling fraction, assembly formula.

        The exact computation :func:`build_pipeline` runs at assembly
        — expected interval arrivals from the *assembly-time* subtree
        rates (scenario rate modulation deliberately excluded: budgets
        must stay a pure function of ``(config, fraction)`` so every
        worker shard re-derives identical values coordination-free)
        through :class:`~repro.core.cost.FractionBudget`. The adaptive
        fraction controller calls this between windows; a fraction
        equal to ``config.sampling_fraction`` reproduces the assembly
        budgets exactly.
        """
        budget = FractionBudget(fraction)
        return {
            node.name: budget.sample_size(
                int(round(
                    self.subtree_rate(node.name) * self.config.window_seconds
                ))
            )
            for node in self.tree.sampling_nodes
        }

    def subtree_rate(self, node_name: str) -> float:
        """Aggregate source rate (items/s) feeding a node's subtree."""
        return sum(
            self.source_rates[source.name]
            for source in self.tree.sources
            if node_name in self.tree.path_to_root(source.name)
        )

    def substream_owner_count(self, substream: str) -> int:
        """How many source nodes jointly produce a sub-stream."""
        count = sum(
            1 for owner in self.source_substreams.values()
            if owner == substream
        )
        if count == 0:
            raise PipelineError(f"no sources produce sub-stream {substream!r}")
        return count

    def coin_flipper(self, fraction: float) -> CoinFlipSampler:
        """An SRS sampler on the run's entropy: ``gen``, or a seeded ``Random``."""
        if self.gen is not None:
            return CoinFlipSampler(fraction, self.rng, gen=self.gen)
        return CoinFlipSampler(fraction, random.Random(self.rng.getrandbits(64)))

    def emit_source(
        self, node_name: str, interval_start: float, interval_seconds: float
    ) -> "ColumnarBatch":
        """One source's batch for one interval."""
        return self.sources[node_name].emit_interval_columns(
            interval_start, interval_seconds
        )

    def emit_window(self, window_start: float) -> "dict[str, ColumnarBatch]":
        """One window's emissions, keyed by source node name.

        Sources are driven in tree order so a seeded run is
        deterministic regardless of the transport in use.
        """
        return {
            node.name: self.emit_source(
                node.name, window_start, self.config.window_seconds
            )
            for node in self.tree.sources
        }


def _build_sources(
    tree: LogicalTree,
    schedule: RateSchedule,
    generators: dict[str, ItemGenerator],
    rng: random.Random,
    backend: str,
) -> tuple[dict[str, Source], dict[str, str]]:
    """Assign sub-streams round-robin across the tree's sources.

    With 8 sources and 4 sub-streams each sub-stream is produced by
    2 sources; the schedule's per-sub-stream rate is split evenly
    among them. Returns the sources plus the source → sub-stream
    ownership map the assignment produced.
    """
    substreams = sorted(schedule.rates)
    missing = [s for s in substreams if s not in generators]
    if missing:
        raise PipelineError(f"no generators for sub-streams: {missing}")
    source_nodes = tree.sources
    owners: dict[str, list[TreeNode]] = {s: [] for s in substreams}
    for index, node in enumerate(source_nodes):
        owners[substreams[index % len(substreams)]].append(node)
    sources: dict[str, Source] = {}
    source_substreams: dict[str, str] = {}
    for substream, nodes in owners.items():
        if not nodes:
            raise PipelineError(
                f"tree has fewer sources than sub-streams; "
                f"{substream!r} has no producer"
            )
        per_source_rate = schedule.rates[substream] / len(nodes)
        for node in nodes:
            sources[node.name] = Source(
                node.name,
                generators[substream],
                per_source_rate,
                rng=random.Random(rng.getrandbits(64)),
                backend=backend,
            )
            source_substreams[node.name] = substream
    return sources, source_substreams


def build_pipeline(
    config: PipelineConfig,
    schedule: RateSchedule,
    generators: dict[str, ItemGenerator],
) -> Pipeline:
    """Assemble the node graph for one run.

    Budgets are sized so each node passes on ``sampling_fraction`` of
    the *original* volume of its subtree. In steady state, layers above
    the first receive roughly their budget and pass items through
    (weight 1); under rate fluctuation they re-sample, which is where
    the hierarchy earns its keep.
    """
    tree = config.tree
    rng = random.Random(config.seed)
    backend = config.resolved_backend
    sources, source_substreams = _build_sources(
        tree, schedule, generators, rng, backend
    )
    pipeline = Pipeline(
        config=config,
        tree=tree,
        backend=backend,
        rng=rng,
        gen=make_generator(rng) if backend == BACKEND_NUMPY else None,
        sources=sources,
        source_substreams=source_substreams,
    )
    pipeline.source_rates = {
        node.name: pipeline.sources[node.name].rate_per_second
        for node in tree.sources
    }
    pipeline.budgets = pipeline.budgets_for_fraction(config.sampling_fraction)
    return pipeline
