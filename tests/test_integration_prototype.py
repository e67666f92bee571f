"""End-to-end integration of the paper's prototype architecture (Fig. 4).

Wires the substrates together the way §IV describes, with the
simulated network in place of the broker: input streams cross a WAN
link into the first sampling layer's inbox; each layer closes its
interval with one WHSamp step (``whsamp_batches``) and sends the
weighted batches up its own link; the root collects the last layer's
output, executes the query and attaches error bounds. No shortcuts
through the system-level runners — this exercises simnet + engine
transport + core together.
"""

import numpy as np
import pytest

from repro.core import ColumnarBatch, ThetaStore, WeightedBatch
from repro.core import estimate_sum_with_error
from repro.core.whs import whsamp_batches
from repro.engine import SimnetTransport
from repro.simnet import PAPER_WAN, Network

LAYERS = ("source", "layer1", "layer2", "root")
UPLINKS = ("source_to_l1", "l1_to_l2", "l2_to_root")
STREAMS = (("sensors/a", 10.0), ("sensors/b", 5_000.0))


class Prototype:
    """source -> layer1 -> layer2 -> root, one WAN link per hop."""

    def __init__(self, sample_sizes, seed):
        self.network = Network()
        for host in LAYERS:
            self.network.add_host(host, service_rate=1e6)
        for (src, dst), uplink in zip(zip(LAYERS, LAYERS[1:]), UPLINKS):
            self.network.add_link(src, dst, PAPER_WAN[uplink])
        self.transport = SimnetTransport(self.network)
        for node in LAYERS[1:]:
            self.transport.register(node)
        self.sample_sizes = dict(zip(LAYERS[1:3], sample_sizes))
        self.gen = np.random.default_rng(seed)
        self.exact = 0.0
        self.count = 0
        self.theta = ThetaStore()

    def ingest(self, interval, items_per_stream):
        for substream, mu in STREAMS:
            values = self.gen.normal(mu, mu * 0.1, items_per_stream)
            self.exact += float(values.sum())
            self.count += items_per_stream
            columns = ColumnarBatch.single(substream, values, float(interval))
            self.transport.send(
                "source", "layer1", WeightedBatch(substream, 1.0, columns)
            )

    def close_interval(self, end):
        """Every layer samples what its link delivered by ``end``."""
        self.network.clock.run_until(end)
        for node, parent in (("layer1", "layer2"), ("layer2", "root")):
            inbox = self.transport.collect(node)
            if not inbox:
                continue
            for weighted in whsamp_batches(
                inbox, self.sample_sizes[node], gen=self.gen
            ):
                self.transport.send(node, parent, weighted)
        self.theta.extend(self.transport.collect("root"))

    def run(self, intervals=4, items_per_stream=500):
        for interval in range(intervals):
            self.ingest(interval, items_per_stream)
            self.close_interval(interval + 1.0)
        # Drain: batches still on a link land in later closes.
        for extra in range(1, 4):
            self.close_interval(intervals + extra)
        return self

    def link_bytes(self, src, dst):
        return self.network.link(src, dst).bytes_sent


class TestPrototypeEndToEnd:
    def test_two_sampling_layers_estimate_the_sum(self):
        proto = Prototype(sample_sizes=(400, 200), seed=13).run()
        assert len(proto.theta) > 0
        approx = estimate_sum_with_error(proto.theta, confidence=0.95)
        assert approx.value == pytest.approx(proto.exact, rel=0.1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_count_is_recovered_through_two_layers(self, seed):
        """Eq. 8: |I| * W_out sums to the source count at the root."""
        proto = Prototype(sample_sizes=(300, 100), seed=seed).run()
        recovered = sum(
            est.estimated_count
            for est in proto.theta.per_substream().values()
        )
        assert recovered == pytest.approx(proto.count, rel=1e-9)

    def test_every_substream_reaches_the_root(self):
        proto = Prototype(sample_sizes=(40, 10), seed=7).run()
        assert sorted(proto.theta.per_substream()) == sorted(
            s for s, _ in STREAMS
        )

    def test_sampling_reduces_link_volume(self):
        proto = Prototype(sample_sizes=(400, 200), seed=14).run()
        source = proto.link_bytes("source", "layer1")
        layer1 = proto.link_bytes("layer1", "layer2")
        layer2 = proto.link_bytes("layer2", "root")
        assert layer1 < source / 2
        assert layer2 <= layer1

    def test_unsaturated_layers_forward_everything(self):
        """A budget above the arrivals passes every item at weight 1."""
        proto = Prototype(sample_sizes=(10_000, 10_000), seed=15)
        proto.run(items_per_stream=50)
        assert proto.link_bytes("layer2", "root") == (
            proto.link_bytes("source", "layer1")
        )
        assert all(batch.weight == 1.0 for batch in proto.theta.batches)
        approx = estimate_sum_with_error(proto.theta)
        assert approx.value == pytest.approx(proto.exact, rel=1e-12)

    def test_a_batch_reaches_the_root_after_every_link_delay(self):
        """10 + 20 + 40 ms one-way: a close at 0.05 s misses it."""
        proto = Prototype(sample_sizes=(100, 100), seed=16)
        proto.ingest(0, items_per_stream=10)
        proto.close_interval(0.015)
        proto.close_interval(0.05)
        assert len(proto.theta) == 0
        proto.close_interval(0.1)
        assert len(proto.theta) == len(STREAMS)
