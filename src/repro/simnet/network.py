"""The simulated network: hosts wired by links over a shared clock.

A thin graph layer (an adjacency map beside the link table) that owns
hosts and links, routes messages over single hops or shortest multi-hop
paths, and aggregates transfer statistics for the bandwidth experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.errors import NetworkError
from repro.simnet.clock import Clock
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.netem import NetemConfig

__all__ = ["Network"]


class Network:
    """Hosts + links + routing over one simulation clock."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: host -> direct successors, in the order their links were added.
        self._successors: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, service_rate: float) -> Host:
        """Create a host; raises if the name is taken."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name, self.clock, service_rate)
        self._hosts[name] = host
        self._successors[name] = []
        return host

    def add_link(self, src: str, dst: str, config: NetemConfig) -> Link:
        """Create a unidirectional link between two existing hosts."""
        self.host(src)
        self.host(dst)
        key = (src, dst)
        if key in self._links:
            raise NetworkError(f"link {src}->{dst} already exists")
        link = Link(f"{src}->{dst}", self.clock, config)
        self._links[key] = link
        self._successors[src].append(dst)
        return link

    def add_duplex_link(
        self, a: str, b: str, config: NetemConfig
    ) -> tuple[Link, Link]:
        """Create links in both directions with the same shaping."""
        return self.add_link(a, b, config), self.add_link(b, a, config)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"no such host: {name!r}") from None

    def link(self, src: str, dst: str) -> Link:
        """Look up the link between two hosts."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NetworkError(f"no link {src}->{dst}") from None

    @property
    def hosts(self) -> list[str]:
        """All host names, sorted."""
        return sorted(self._hosts)

    @property
    def links(self) -> list[Link]:
        """All links."""
        return list(self._links.values())

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> float:
        """Send a message over the direct link ``src -> dst``."""
        return self.link(src, dst).transfer(size_bytes, payload, deliver)

    def route(self, src: str, dst: str) -> list[str]:
        """Shortest path (hop count) from src to dst.

        Breadth-first, so among equally short paths the one through
        the earliest-added links wins.
        """
        paths = {src: [src]} if src in self._hosts else {}
        queue = deque(paths)
        while queue and dst not in paths:
            here = queue.popleft()
            for successor in self._successors[here]:
                if successor not in paths:
                    paths[successor] = paths[here] + [successor]
                    queue.append(successor)
        if dst not in paths:
            raise NetworkError(f"no route {src} -> {dst}")
        return paths[dst]

    def send_routed(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> None:
        """Send along the shortest path, hop by hop.

        Each hop's transfer is scheduled when the previous hop
        delivers, so queueing and serialization accumulate per hop as
        they would in a store-and-forward overlay.
        """
        path = self.route(src, dst)
        if len(path) == 1:
            self.clock.schedule(0.0, deliver, payload)
            return

        def forward(hop_index: int) -> Callable[[Any], None]:
            def _deliver(message: Any) -> None:
                if hop_index == len(path) - 1:
                    deliver(message)
                else:
                    self.link(path[hop_index], path[hop_index + 1]).transfer(
                        size_bytes, message, forward(hop_index + 1)
                    )
            return _deliver

        self.link(path[0], path[1]).transfer(size_bytes, payload, forward(1))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_bytes_sent(self) -> int:
        """Bytes transferred across every link since the last reset."""
        return sum(link.bytes_sent for link in self._links.values())

    def reset_counters(self) -> None:
        """Zero all link and host counters."""
        for link in self._links.values():
            link.reset_counters()
        for host in self._hosts.values():
            host.reset_counters()
