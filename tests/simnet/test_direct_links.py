"""Direct-link messaging over the simulated network.

``Network`` sends only over the link a caller names: there is no
routing table, so a message that must climb several layers is sent
hop by hop by the caller (the deployment simulator does exactly this,
one uplink per tree edge). These tests pin that contract — links are
one-way, only added pairs exist, ``NetworkError`` for unknown hosts
and missing links — on the paper tree, on small graphs, and against
the edge list on random digraphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.simnet import NetemConfig, Network
from repro.topology import PlacementSpec, paper_tree, place_tree

CFG = NetemConfig(delay_ms=5.0, rate_bps=8e6)


def network_of(hosts, edges) -> Network:
    network = Network()
    for name in hosts:
        network.add_host(name, 1000.0)
    for src, dst in edges:
        network.add_link(src, dst, CFG)
    return network


def send_along(network, path, size, message, deliver):
    """Send hop by hop over the direct links of ``path``."""
    if len(path) == 1:
        deliver(message)
        return

    def next_hop(payload):
        send_along(network, path[1:], size, payload, deliver)

    network.send(path[0], path[1], size, message, next_hop)


class TestPaperTree:
    def test_every_non_root_node_has_one_uplink_to_its_parent(self):
        tree = paper_tree()
        network = place_tree(tree, PlacementSpec.paper_defaults())
        uplinks = {link.name for link in network.links}
        expected = {
            f"{node.name}->{node.parent}"
            for layer in range(tree.depth - 1)
            for node in tree.layer(layer)
        }
        assert uplinks == expected

    def test_uplinks_are_one_way(self):
        network = place_tree(paper_tree(), PlacementSpec.paper_defaults())
        with pytest.raises(NetworkError, match="no link root->l2-0"):
            network.link("root", "l2-0")
        with pytest.raises(NetworkError, match="no link l1-0->source-0"):
            network.send("l1-0", "source-0", 1, "m", lambda m: None)

    def test_siblings_share_no_link(self):
        network = place_tree(paper_tree(), PlacementSpec.paper_defaults())
        with pytest.raises(NetworkError):
            network.link("source-0", "source-1")

    def test_hop_by_hop_send_pays_every_uplink(self):
        tree = paper_tree()
        network = place_tree(tree, PlacementSpec.paper_defaults())
        arrived = []
        path = tree.path_to_root("source-5")
        send_along(
            network, path, 100, "m",
            lambda message: arrived.append((message, network.clock.now)),
        )
        network.clock.run()
        assert [
            network.link(a, b).messages_sent for a, b in zip(path, path[1:])
        ] == [1, 1, 1]
        assert sum(link.bytes_sent for link in network.links) == 300
        # 10 + 20 + 40 ms one-way propagation, plus serialization.
        assert arrived[0][0] == "m"
        assert arrived[0][1] == pytest.approx(0.070, abs=1e-4)


class TestSmallGraphs:
    def test_delivery_is_scheduled_not_synchronous(self):
        network = network_of("ab", [("a", "b")])
        got = []
        network.send("a", "b", 100, "m", got.append)
        assert got == []
        network.clock.run()
        assert got == ["m"]

    def test_send_returns_the_arrival_time(self):
        network = network_of("ab", [("a", "b")])
        got = []
        arrival = network.send(
            "a", "b", 1000, "m", lambda m: got.append(network.clock.now)
        )
        network.clock.run()
        assert got == [arrival]
        # 5 ms propagation + 8000 bits at 8 Mbit/s.
        assert arrival == pytest.approx(0.005 + 0.001)

    def test_a_two_hop_pair_has_no_direct_link(self):
        network = network_of("abc", [("a", "b"), ("b", "c")])
        with pytest.raises(NetworkError, match="no link a->c"):
            network.send("a", "c", 1, "m", lambda m: None)
        assert sum(link.bytes_sent for link in network.links) == 0

    def test_a_host_has_no_link_to_itself(self):
        network = network_of("a", [])
        with pytest.raises(NetworkError, match="no link a->a"):
            network.link("a", "a")

    def test_hosts_are_looked_up_by_name(self):
        network = network_of(["c", "a", "b"], [])
        assert [network.host(name).name for name in "abc"] == ["a", "b", "c"]

    def test_links_are_listed_in_insertion_order(self):
        network = network_of("abc", [("b", "c"), ("a", "b")])
        assert [link.name for link in network.links] == ["b->c", "a->b"]

    def test_each_direction_is_its_own_link(self):
        network = network_of("ab", [("a", "b"), ("b", "a")])
        network.send("a", "b", 10, None, lambda m: None)
        network.send("b", "a", 30, None, lambda m: None)
        assert network.link("a", "b").bytes_sent == 10
        assert network.link("b", "a").bytes_sent == 30

    @pytest.mark.parametrize("src,dst", [("a", "ghost"), ("ghost", "a"),
                                         ("ghost", "ghost")])
    def test_a_link_to_an_unknown_host_is_refused(self, src, dst):
        network = network_of("ab", [("a", "b")])
        with pytest.raises(NetworkError, match="no such host: 'ghost'"):
            network.add_link(src, dst, CFG)
        assert len(network.links) == 1

    @pytest.mark.parametrize("src,dst", [("a", "ghost"), ("ghost", "a"),
                                         ("ghost", "ghost")])
    def test_a_send_to_or_from_an_unknown_host_is_refused(self, src, dst):
        network = network_of("ab", [("a", "b")])
        with pytest.raises(NetworkError, match=f"no link {src}->{dst}"):
            network.send(src, dst, 1, "m", lambda m: None)
        assert len(network.clock._queue) == 0


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)
                 if pairs else st.just([]))
    return n, edges


@given(graph=digraphs())
@settings(max_examples=150, deadline=None)
def test_exactly_the_added_pairs_are_linked(graph):
    n, edges = graph
    names = [f"h{i}" for i in range(n)]
    network = network_of(names, [(names[a], names[b]) for a, b in edges])
    links = set(edges)
    for src in range(n):
        for dst in range(n):
            if (src, dst) in links:
                assert network.link(names[src], names[dst]).name == (
                    f"{names[src]}->{names[dst]}"
                )
            else:
                with pytest.raises(NetworkError):
                    network.link(names[src], names[dst])


@given(graph=digraphs(), size=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_a_send_charges_only_its_own_link(graph, size):
    n, edges = graph
    names = [f"h{i}" for i in range(n)]
    network = network_of(names, [(names[a], names[b]) for a, b in edges])
    got = []
    for a, b in edges:
        network.send(names[a], names[b], size, (a, b), got.append)
    network.clock.run()
    assert sorted(got) == sorted(edges)
    for a, b in edges:
        link = network.link(names[a], names[b])
        assert (link.messages_sent, link.bytes_sent) == (1, size)
    assert sum(link.bytes_sent for link in network.links) == size * len(edges)
