"""Unit tests for netem-style packet loss on links."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.simnet.clock import Clock
from repro.simnet.link import Link
from repro.simnet.netem import NetemConfig


class TestLossConfig:
    def test_default_lossless(self):
        assert NetemConfig(1.0, 1e9).loss == 0.0

    def test_from_rtt_carries_loss(self):
        config = NetemConfig.from_rtt(20.0, 1e9, loss=0.05)
        assert config.loss == 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetemConfig(1.0, 1e9, loss=-0.1)
        with pytest.raises(ConfigurationError):
            NetemConfig(1.0, 1e9, loss=1.0)


class TestLossyLink:
    def test_lossless_link_delivers_everything(self):
        clock = Clock()
        link = Link("l", clock, NetemConfig(1.0, 1e9), random.Random(1))
        delivered = []
        for i in range(100):
            link.transfer(10, i, delivered.append)
        clock.run()
        assert len(delivered) == 100
        assert link.messages_dropped == 0

    def test_loss_rate_approximates_config(self):
        clock = Clock()
        link = Link(
            "l", clock, NetemConfig(1.0, 1e9, loss=0.3), random.Random(2)
        )
        delivered = []
        for i in range(5000):
            link.transfer(10, i, delivered.append)
        clock.run()
        drop_rate = link.messages_dropped / 5000
        assert drop_rate == pytest.approx(0.3, abs=0.05)
        assert len(delivered) + link.messages_dropped == 5000

    def test_dropped_transfer_returns_none(self):
        clock = Clock()
        link = Link(
            "l", clock, NetemConfig(1.0, 1e9, loss=0.999), random.Random(3)
        )
        outcomes = [link.transfer(10, i, lambda m: None) for i in range(50)]
        assert any(outcome is None for outcome in outcomes)

    def test_drops_still_burn_wire_time(self):
        """A lost packet occupied the wire before it vanished."""
        clock = Clock()
        link = Link(
            "l", clock,
            NetemConfig(delay_ms=0.0, rate_bps=8_000.0, loss=0.999),
            random.Random(4),
        )
        for i in range(3):
            link.transfer(1000, i, lambda m: None)  # 1s serialization each
        delivered_at = link.transfer(1000, "x", lambda m: None)
        # Even if this one survives, it queued behind the lost ones.
        if delivered_at is not None:
            assert delivered_at >= 4.0
        assert link.bytes_sent == 4000


#: Twelve transfers over a ``loss=0.5`` link built without an rng.
DROPS_PROBE = """
from repro.simnet.netem import NetemConfig
from repro.simnet.network import Network
network = Network()
network.add_host("edge-0", 1e6)
network.add_host("root", 1e6)
link = network.add_link("edge-0", "root", NetemConfig(1.0, 1e9, loss=0.5))
print([link.transfer(10, i, lambda m: None) is None for i in range(12)])
"""


class TestDefaultLinkRng:
    def test_drops_do_not_depend_on_the_hash_seed(self):
        """A network's links seed their loss from the link name, so a
        lossy run drops the same messages in every process."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        drops = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(p for p in path if p),
            )
            done = subprocess.run(
                [sys.executable, "-c", DROPS_PROBE],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            drops.add(done.stdout.strip())
        assert len(drops) == 1
        assert "True" in drops.pop()  # the link does drop
