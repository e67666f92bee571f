"""Discrete-event WAN/host simulator.

Replaces the paper's 25-node testbed and ``tc`` traffic shaping with a
deterministic simulation: a shared virtual clock, hosts with finite
service rates (the root saturates exactly as the paper's datacenter
node does), and links with propagation delay, serialization delay and
FIFO queueing at the paper's WAN settings (20/40/80 ms RTT, 1 Gbps).
"""

from repro.simnet.clock import Clock
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.netem import PAPER_WAN, NetemConfig
from repro.simnet.network import Network
from repro.simnet.stats import LatencyRecorder, bandwidth_saving, network_snapshot

__all__ = [
    "Clock",
    "Host",
    "LatencyRecorder",
    "Link",
    "NetemConfig",
    "Network",
    "PAPER_WAN",
    "bandwidth_saving",
    "network_snapshot",
]
