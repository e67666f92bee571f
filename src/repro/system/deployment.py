"""Deployment simulator — throughput / latency / bandwidth experiments.

Runs the assembled system on the discrete-event substrate: sources emit
per-window batches, batches cross simulated WAN links (propagation +
serialization + FIFO queueing) into per-node inboxes, sampling
nodes drain their inboxes on their own interval clocks, spend simulated
CPU proportional to the items they ingest, and forward sampled
sub-streams upward until the root processes them.

Three modes (§V-A Methodology):

* ``approxiot`` — windowed weighted hierarchical sampling at every
  sampling node; batches land in per-node inboxes.
* ``srs`` — coin-flip sampling at the first edge layer, processed
  per-delivery (no windows: this is why SRS latency is flat in Fig. 9).
* ``native`` — everything forwarded unsampled; the datacenter node
  saturates, which is what Figs. 6 and 8 measure.

Since the engine refactor this module is a facade over
:mod:`repro.engine`: tree assembly and budget sizing come from
:func:`~repro.engine.pipeline.build_pipeline`, the per-interval WHSamp
step is :func:`~repro.engine.runner.sample_interval`, and approxiot
batches move through a
:class:`~repro.engine.transport.SimnetTransport` (inboxes fed over
WAN links). What remains here is deployment-specific: the emission
chunking, the interval-close clockwork, host CPU accounting and the
latency/bandwidth measurements.

The root forwards nothing and its host is FIFO, so a streaming root
delivery is settled on arrival (:meth:`~repro.simnet.host.Host.admit`),
not held in a completion event. An ``approxiot`` root keeps its event:
its WHSamp draws from the pipeline's generator in event order.

``PipelineConfig.workers`` does not apply here: the deployment
simulator models distribution *explicitly* — every tree node is a
simulated host with its own service rate, so parallelism is a property
of the placement, not of the driver process. The knob selects
process-parallel shards for the algorithmic engine
(:mod:`repro.engine.sharding`, behind the statistical figures) and is
ignored by this facade.

This is the engine behind Figs. 6, 7, 8, 9 and 11(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.columns import ColumnarBatch
from repro.core.items import WeightedBatch
from repro.core.srs import coin_flips
from repro.engine.pipeline import Pipeline, build_pipeline
from repro.engine.runner import sample_interval
from repro.engine.transport import SimnetTransport
from repro.errors import PipelineError
from repro.simnet.stats import LatencyRecorder
from repro.system.config import ExecutionMode, PipelineConfig
from repro.topology.placement import place_tree
from repro.topology.tree import TreeNode
from repro.workloads.rates import RateSchedule
from repro.workloads.source import ItemGenerator

__all__ = ["DeploymentReport", "DeploymentSimulator"]


@dataclass(frozen=True, slots=True)
class DeploymentReport:
    """Measured outcome of one simulated deployment run.

    Attributes:
        mode: Which system ran.
        sampling_fraction: Configured end-to-end fraction.
        window_seconds: The interval/window length used.
        items_emitted: Ground-truth item count from all sources.
        items_at_root: Items the root physically processed (post-
            sampling ingest for approxiot/srs; everything for native).
        makespan_seconds: Virtual time until the root finished its last
            batch.
        throughput_items_per_second: ``items_emitted / makespan`` — the
            sustained rate, which collapses when the bottleneck
            saturates (the paper's Fig. 6 metric).
        mean_latency_seconds: Mean source-to-root-processing latency.
        boundary_bytes: Bytes crossing each layer boundary
            (source→L1, L1→L2, L2→root for the paper tree).
    """

    mode: str
    sampling_fraction: float
    window_seconds: float
    items_emitted: int
    items_at_root: int
    makespan_seconds: float
    throughput_items_per_second: float
    mean_latency_seconds: float
    boundary_bytes: list[int]

    @property
    def realized_fraction(self) -> float:
        """Fraction of emitted items that reached the root."""
        if self.items_emitted == 0:
            raise PipelineError("run emitted no items")
        return self.items_at_root / self.items_emitted


class _ApproxIoTNodeState:
    """Per-node runtime state for the windowed sampling mode.

    ``budget`` mirrors the pipeline's sizing (the sampling step reads
    it from the pipeline directly); it is kept here so white-box tests
    and debuggers can inspect a node's budget alongside its ingest
    counter.
    """

    def __init__(self, node: TreeNode, budget: int) -> None:
        self.node = node
        self.budget = budget
        self.items_ingested = 0


class DeploymentSimulator:
    """One simulated run of one mode at one sampling fraction."""

    def __init__(
        self,
        config: PipelineConfig,
        schedule: RateSchedule,
        generators: dict[str, ItemGenerator],
        *,
        n_windows: int = 10,
    ) -> None:
        if n_windows <= 0:
            raise PipelineError(f"n_windows must be >= 1, got {n_windows}")
        self._config = config
        self._n_windows = n_windows
        self._pipeline: Pipeline = build_pipeline(config, schedule, generators)
        self._tree = self._pipeline.tree
        self._network = place_tree(self._tree, config.placement)
        self._clock = self._network.clock
        self._transport = SimnetTransport(self._network)
        # Looked up per event. Hosts and links hold no reference back to
        # the simulator, so keeping them here makes no cycle.
        self._hosts = {
            name: self._network.host(name) for name in self._tree.nodes
        }
        self._uplinks = {
            node.name: self._network.link(node.name, node.parent)
            for node in self._tree.nodes.values()
            if node.parent is not None
        }
        self._latency = LatencyRecorder()
        self._items_emitted = 0
        # source -> ((count, seconds), offsets): a steady source reuses
        # its spread.
        self._spreads: dict[str, tuple] = {}
        self._items_at_root = 0
        self._root_last_completion = 0.0
        self._states: dict[str, _ApproxIoTNodeState] = {}
        if config.mode == ExecutionMode.APPROXIOT:
            for node in self._tree.sampling_nodes:
                self._transport.register(node.name)
                self._states[node.name] = _ApproxIoTNodeState(
                    node, self._pipeline.budget(node.name)
                )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    #: Sources ship their buffered items at this granularity (seconds),
    #: independent of the sampling window — real sources stream
    #: continuously, so the source-side delay must not scale with the
    #: window size (otherwise Fig. 9's flat SRS line would be an artifact).
    EMISSION_GRANULARITY = 0.25

    def run(self) -> DeploymentReport:
        """Execute the full run and return the measured report."""
        window = self._config.window_seconds
        duration = self._n_windows * window
        chunks = max(1, math.ceil(duration / self.EMISSION_GRANULARITY))
        chunk = duration / chunks
        for index in range(chunks):
            self._clock.schedule_at(
                (index + 1) * chunk, self._emit_chunk, (index * chunk, chunk)
            )
        if self._config.mode == ExecutionMode.APPROXIOT:
            self._run_windowed()
        else:
            self._clock.run()
        makespan = (
            self._root_last_completion
            if self._root_last_completion > 0
            else self._clock.now
        )
        throughput = self._items_emitted / makespan if makespan > 0 else 0.0
        mean_latency = (
            self._latency.mean() if self._latency.count > 0 else 0.0
        )
        return DeploymentReport(
            mode=self._config.mode,
            sampling_fraction=self._config.sampling_fraction,
            window_seconds=window,
            items_emitted=self._items_emitted,
            items_at_root=self._items_at_root,
            makespan_seconds=makespan,
            throughput_items_per_second=throughput,
            mean_latency_seconds=mean_latency,
            boundary_bytes=self._boundary_bytes(),
        )

    def _run_windowed(self) -> None:
        """Drive ApproxIoT interval closes until every record is drained."""
        window = self._config.window_seconds
        rounds = self._n_windows + self._tree.depth + 2
        for k in range(1, rounds + 1):
            for node in self._tree.sampling_nodes:
                self._clock.schedule_at(k * window, self._close, node.name)
        self._clock.run()
        # Saturated runs may still have undrained batches: keep closing.
        guard = 0
        while self._transport.has_pending():
            guard += 1
            if guard > 10_000:
                raise PipelineError("drain loop did not converge")
            for node in self._tree.sampling_nodes:
                self._clock.schedule(window, self._close, node.name)
            self._clock.run()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_chunk(self, chunk: tuple[float, float]) -> None:
        """Every source's records for one chunk, in tree order.

        One clock event per chunk instant: the per-source events it
        replaces had consecutive sequence numbers, so nothing could
        fire between them and the order is the same.
        """
        chunk_start, chunk_seconds = chunk
        for source_node in self._tree.sources:
            self._emit_source(source_node, chunk_start, chunk_seconds)

    def _emit_source(
        self, source_node: TreeNode, chunk_start: float, chunk_seconds: float
    ) -> None:
        """One source's chunk, its records spread uniformly over the
        chunk so latency accounting sees in-chunk arrival spread."""
        batch = self._pipeline.emit_source(
            source_node.name, chunk_start, chunk_seconds
        )
        if not len(batch):
            return
        key = (len(batch), chunk_seconds)
        cached = self._spreads.get(source_node.name)
        if cached is None or cached[0] != key:
            cached = (key, batch.spread_offsets(chunk_seconds))
            self._spreads[source_node.name] = cached
        batch = batch.with_timestamps_from(chunk_start, cached[1])
        self._items_emitted += len(batch)
        assert source_node.parent is not None
        self._send_items(source_node.name, source_node.parent, batch, 1.0)

    def _send_items(
        self,
        src: str,
        dst: str,
        payload: ColumnarBatch,
        weight: float,
    ) -> None:
        """Ship records toward ``dst``, splitting per sub-stream."""
        if self._config.mode == ExecutionMode.APPROXIOT:
            send = self._transport.send
        else:
            send = self._send_direct
        for substream, chunk in payload.group_by_substream().items():
            send(src, dst, WeightedBatch(substream, weight, chunk))

    def _send_direct(self, src: str, dst: str, batch: WeightedBatch) -> None:
        """One SRS/native hop: over the uplink into ``dst``'s host queue."""
        self._uplinks[src].transfer(
            batch.total_bytes, (dst, batch), self._deliver_streaming
        )

    # ------------------------------------------------------------------
    # Reception and processing
    # ------------------------------------------------------------------
    # Callbacks are bound methods handed to the clock with their
    # ``(node name, payload)`` argument, never stored on ``self``: a
    # stored callback that references the simulator is a reference
    # cycle, and finished simulators would outlive their run.
    def _deliver_streaming(self, delivery: tuple[str, WeightedBatch]) -> None:
        """SRS/native delivery into the host's queue; the root, a sink,
        is accounted at once, stamped with its completion time."""
        node_name, batch = delivery
        host = self._hosts[node_name]
        if node_name != "root":
            host.process(len(batch), delivery, self._finish_streaming)
            return
        count = len(batch)
        completion = host.admit(count)
        self._items_at_root += count
        self._root_last_completion = completion
        self._latency.record_column(
            batch.items.timestamp_column(), completion
        )

    def _close(self, node_name: str) -> None:
        """Interval close: the host takes the node's inbox as one job."""
        batches = self._transport.collect(node_name)
        if not batches:
            return
        count = sum(len(batch) for batch in batches)
        self._states[node_name].items_ingested += count
        self._hosts[node_name].process(
            count, (node_name, batches), self._finish_windowed
        )

    def _finish_windowed(
        self, interval: tuple[str, list[WeightedBatch]]
    ) -> None:
        """Service completed for one ApproxIoT interval: sample, forward."""
        node_name, batches = interval
        state = self._states[node_name]
        ingested = sum(len(batch) for batch in batches)
        if ingested == 0:
            return
        sampled = sample_interval(self._pipeline, node_name, batches)
        if state.node.name == "root":
            now = self._clock.now
            self._items_at_root += ingested
            self._root_last_completion = max(self._root_last_completion, now)
            for batch in sampled:
                stamps = batch.items.timestamp_column()
                self._latency.record_column(stamps, now)
        else:
            assert state.node.parent is not None
            for batch in sampled:
                self._transport.send(state.node.name, state.node.parent, batch)

    def _finish_streaming(self, delivery: tuple[str, WeightedBatch]) -> None:
        """Service completed for one SRS/native delivery below the root."""
        node_name, batch = delivery
        node = self._tree.nodes[node_name]
        if self._config.mode == ExecutionMode.SRS and node.layer == 1:
            fraction = self._config.sampling_fraction
            payload = batch.items.compress(
                coin_flips(self._pipeline.gen, fraction, len(batch))
            )
            if not len(payload):
                return
            batch = WeightedBatch(
                batch.substream, batch.weight / fraction, payload
            )
        assert node.parent is not None
        self._send_direct(node.name, node.parent, batch)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _boundary_bytes(self) -> list[int]:
        """Bytes that crossed each layer boundary, bottom-up."""
        totals: list[int] = []
        for layer in range(self._tree.depth - 1):
            total = 0
            for node in self._tree.layer(layer):
                total += self._uplinks[node.name].bytes_sent
            totals.append(total)
        return totals

    @property
    def latency_recorder(self) -> LatencyRecorder:
        """Latency samples of the run (``count``, ``mean``)."""
        return self._latency
