"""Routing over the simulated network: stdlib BFS, hop-count shortest.

``Network.route`` walks an adjacency kept beside the link table; these
tests pin its contract — shortest by hops, first-added link wins ties,
``NetworkError`` for unknown hosts and unreachable pairs — on the paper
tree, on the small graphs where each clause bites, and against an
independent hop-distance reference on random digraphs.
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


class TestPaperTree:
    def test_every_source_routes_up_its_path_to_root(self):
        tree = paper_tree()
        network = place_tree(tree, PlacementSpec.paper_defaults())
        for source in tree.sources:
            assert network.route(source.name, "root") == tree.path_to_root(
                source.name
            )

    def test_uplinks_are_one_way(self):
        network = place_tree(paper_tree(), PlacementSpec.paper_defaults())
        with pytest.raises(NetworkError, match="no route root -> source-0"):
            network.route("root", "source-0")
        with pytest.raises(NetworkError):
            network.route("source-0", "source-1")

    def test_send_routed_pays_every_hop(self):
        tree = paper_tree()
        network = place_tree(tree, PlacementSpec.paper_defaults())
        arrived = []
        network.send_routed(
            "source-5", "root", 100, "m",
            lambda message: arrived.append((message, network.clock.now)),
        )
        network.clock.run()
        path = tree.path_to_root("source-5")
        assert [
            network.link(a, b).messages_sent for a, b in zip(path, path[1:])
        ] == [1, 1, 1]
        assert network.total_bytes_sent() == 300
        # 10 + 20 + 40 ms one-way propagation, plus serialization.
        assert arrived[0][0] == "m"
        assert arrived[0][1] == pytest.approx(0.070, abs=1e-4)


class TestSmallGraphs:
    def test_diamond_tie_goes_to_the_first_added_link(self):
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert network_of("abcd", edges).route("a", "d") == ["a", "b", "d"]
        swapped = [("a", "c"), ("a", "b"), ("b", "d"), ("c", "d")]
        assert network_of("abcd", swapped).route("a", "d") == ["a", "c", "d"]

    def test_fewer_hops_beat_an_earlier_link(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
        assert network_of("abcd", edges).route("a", "d") == ["a", "d"]

    def test_one_node_path_delivers_without_a_link(self):
        network = network_of("a", [])
        assert network.route("a", "a") == ["a"]
        got = []
        network.send_routed("a", "a", 100, "self", got.append)
        assert got == []  # delivery is scheduled, not synchronous
        network.clock.run()
        assert got == ["self"]
        assert network.total_bytes_sent() == 0

    def test_island_is_unreachable_in_both_directions(self):
        network = network_of(["a", "b", "island"], [("a", "b")])
        with pytest.raises(NetworkError, match="no route a -> island"):
            network.route("a", "island")
        with pytest.raises(NetworkError, match="no route island -> a"):
            network.send_routed("island", "a", 1, "m", lambda m: None)

    @pytest.mark.parametrize("src,dst", [("a", "ghost"), ("ghost", "a"),
                                         ("ghost", "ghost")])
    def test_unknown_host_is_a_network_error(self, src, dst):
        network = network_of("ab", [("a", "b")])
        with pytest.raises(NetworkError, match=f"no route {src} -> {dst}"):
            network.route(src, dst)


def hop_distances(n, edges, src):
    """Reference hop distances by relaxing every edge to a fixpoint."""
    distance = {src: 0}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in distance and distance[a] + 1 < distance.get(b, n + 1):
                distance[b] = distance[a] + 1
                changed = True
    return distance


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)
                 if pairs else st.just([]))
    return n, edges


@given(graph=digraphs())
@settings(max_examples=150, deadline=None)
def test_route_length_is_the_hop_distance(graph):
    n, edges = graph
    names = [f"h{i}" for i in range(n)]
    network = network_of(names, [(names[a], names[b]) for a, b in edges])
    links = set(edges)
    for src in range(n):
        distance = hop_distances(n, edges, src)
        for dst in range(n):
            if dst not in distance:
                with pytest.raises(NetworkError):
                    network.route(names[src], names[dst])
                continue
            path = [names.index(hop) for hop in network.route(
                names[src], names[dst]
            )]
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == distance[dst]
            assert all(hop in links for hop in zip(path, path[1:]))
