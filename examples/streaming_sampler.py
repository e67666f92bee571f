"""The paper's prototype shape: a sampling step between a source and a sink.

ApproxIoT's implementation (§IV) runs WHSamp as a stream processor
between a source topic and a sink topic. Here the topics are the
deployment simulator's ``SimnetTransport`` (per-node inboxes fed over
simulated WAN links), the processor is one ``whsamp_batches`` call per
interval (the step ``sample_interval`` runs at every tree node), and
the sink answers a SUM query from the weighted batches it received.

Run:  python examples/streaming_sampler.py
"""

import numpy as np

from repro.core import ColumnarBatch, ThetaStore, WeightedBatch
from repro.core import estimate_sum_with_error
from repro.core.whs import whsamp_batches
from repro.engine import SimnetTransport
from repro.simnet import PAPER_WAN, Network


def main() -> None:
    network = Network()
    for host in ("source", "sampler", "sink"):
        network.add_host(host, service_rate=1e6)
    network.add_link("source", "sampler", PAPER_WAN["source_to_l1"])
    network.add_link("sampler", "sink", PAPER_WAN["l2_to_root"])
    transport = SimnetTransport(network)
    for node in ("sampler", "sink"):
        transport.register(node)

    gen = np.random.default_rng(42)
    exact = 0.0
    for interval in range(20):
        # Source: two sensor fleets, 100 readings each per interval.
        for substream, mu in (("indoor", 21.0), ("furnace", 900.0)):
            values = gen.normal(mu, mu * 0.05, 100)
            exact += values.sum()
            columns = ColumnarBatch.single(substream, values, float(interval))
            batch = WeightedBatch(substream, 1.0, columns)
            transport.send("source", "sampler", batch)
        network.clock.run_until(interval + 1.0)
        # Sampling node: one interval close over what its link delivered.
        result = whsamp_batches(transport.collect("sampler"), 30, gen=gen)
        for weighted in result.batches:
            transport.send("sampler", "sink", weighted)
    network.clock.run()
    theta = ThetaStore()  # The sink: one SUM over everything it received.
    theta.extend(transport.collect("sink"))

    approx = estimate_sum_with_error(theta, confidence=0.95)
    print("Streaming sampler (paper §IV shape)")
    for link in network.links:
        print(f"{link.name:<16}: {link.bytes_sent:,} B")
    print(f"SUM at the sink : {approx}")
    print(f"exact SUM       : {exact:,.1f}")
    print(f"accuracy loss   : {100 * abs(approx.value - exact) / exact:.4f}%")

if __name__ == "__main__":
    main()
