"""The simulated network: hosts wired by links over a shared clock.

A thin layer that owns hosts and the links between them and sends
messages over direct links; each link counts its own bytes for the
bandwidth experiments.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import NetworkError
from repro.simnet.clock import Clock
from repro.simnet.host import Host
from repro.simnet.link import Link
from repro.simnet.netem import NetemConfig

__all__ = ["Network"]


class Network:
    """Hosts + links over one simulation clock."""

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, service_rate: float) -> Host:
        """Create a host; raises if the name is taken."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name, self.clock, service_rate)
        self._hosts[name] = host
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
        return link

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
