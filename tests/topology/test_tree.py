"""Unit tests for the logical tree and placement."""

import pytest

from repro.errors import TreeError
from repro.simnet.netem import NetemConfig
from repro.topology.placement import PlacementSpec, place_tree
from repro.topology.tree import LogicalTree, paper_tree


class TestPaperTree:
    def test_layer_sizes(self):
        tree = paper_tree()
        assert tree.layer_sizes == [8, 4, 2, 1]
        assert tree.depth == 4
        assert tree.sampling_layer_count == 3

    def test_sources_and_root(self):
        tree = paper_tree()
        assert len(tree.sources) == 8
        assert tree.sources[0].name == "source-0"
        assert tree.root.name == "root"
        assert tree.root.parent is None

    def test_contiguous_parenting(self):
        tree = paper_tree()
        assert tree.node("source-0").parent == "l1-0"
        assert tree.node("source-1").parent == "l1-0"
        assert tree.node("source-7").parent == "l1-3"
        assert tree.node("l1-0").parent == "l2-0"
        assert tree.node("l1-3").parent == "l2-1"
        assert tree.node("l2-0").parent == "root"

    def test_children(self):
        tree = paper_tree()
        assert [c.name for c in tree.children("l1-0")] == ["source-0", "source-1"]
        assert [c.name for c in tree.children("root")] == ["l2-0", "l2-1"]
        assert tree.children("source-0") == []

    def test_subtree_source_count(self):
        tree = paper_tree()
        assert tree.subtree_source_count("root") == 8
        assert tree.subtree_source_count("l2-0") == 4
        assert tree.subtree_source_count("l1-1") == 2
        assert tree.subtree_source_count("source-3") == 1

    def test_path_to_root(self):
        tree = paper_tree()
        assert tree.path_to_root("source-5") == [
            "source-5", "l1-2", "l2-1", "root"
        ]

    def test_sampling_nodes_bottom_up(self):
        tree = paper_tree()
        names = [node.name for node in tree.sampling_nodes]
        assert names == ["l1-0", "l1-1", "l1-2", "l1-3", "l2-0", "l2-1", "root"]
        assert names[-1] == "root"


class TestValidation:
    def test_too_few_layers(self):
        with pytest.raises(TreeError):
            LogicalTree([4])

    def test_last_layer_must_be_one(self):
        with pytest.raises(TreeError):
            LogicalTree([4, 2])

    def test_positive_sizes(self):
        with pytest.raises(TreeError):
            LogicalTree([4, 0, 1])

    def test_unknown_node(self):
        tree = paper_tree()
        with pytest.raises(TreeError):
            tree.node("ghost")
        with pytest.raises(TreeError):
            tree.layer(9)


class TestCustomShapes:
    def test_two_layer_tree(self):
        tree = LogicalTree([4, 1])
        assert tree.node("source-2").parent == "root"
        assert tree.subtree_source_count("root") == 4

    def test_deep_tree(self):
        tree = LogicalTree([16, 8, 4, 2, 1])
        assert tree.depth == 5
        assert len(tree.path_to_root("source-0")) == 5


class TestPlacement:
    def test_paper_placement_builds_hosts_and_links(self):
        tree = paper_tree()
        network = place_tree(tree, PlacementSpec.paper_defaults())
        assert len(network._hosts) == 15  # 8 + 4 + 2 + 1
        assert len(network.links) == 14  # one uplink per non-root node
        link = network.link("source-0", "l1-0")
        assert link._delay_seconds == 0.010
        link = network.link("l2-0", "root")
        assert link._delay_seconds == 0.040

    def test_service_rates_per_layer(self):
        tree = paper_tree()
        spec = PlacementSpec.paper_defaults(root_rate=5000.0, edge_rate=9000.0)
        network = place_tree(tree, spec)
        assert network.host("root")._service_rate == 5000.0
        assert network.host("l1-0")._service_rate == 9000.0

    def test_spec_length_validation(self):
        tree = paper_tree()
        bad = PlacementSpec(
            layer_service_rates=[1.0, 1.0],
            uplink_configs=[NetemConfig(1.0, 1e9)],
        )
        with pytest.raises(TreeError):
            place_tree(tree, bad)
