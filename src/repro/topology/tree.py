"""The logical sampling tree (paper Fig. 1 and §V-A).

A tree has a bottom layer of data sources and one or more layers of
sampling nodes, the last layer being the single root (datacenter). The
paper's testbed is a four-layer tree: 8 sources → 4 first-layer edge
nodes → 2 second-layer edge nodes → 1 root. Children attach to parents
contiguously (node ``i`` of a layer of size ``n`` feeds parent
``i * m // n`` in the layer of size ``m``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TreeError

__all__ = ["TreeNode", "LogicalTree", "paper_tree"]


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One position in the logical tree.

    Attributes:
        name: Unique node name, e.g. ``"l1-2"`` or ``"root"``.
        layer: Layer index; 0 is the source layer.
        index: Position within the layer.
        parent: Parent node's name (``None`` for the root).
    """

    name: str
    layer: int
    index: int
    parent: str | None


@dataclass
class LogicalTree:
    """An immutable description of layers and parent wiring."""

    layer_sizes: list[int]
    nodes: dict[str, TreeNode] = field(init=False, default_factory=dict)
    _children: dict[str, list[str]] = field(init=False, default_factory=dict)
    _layers: list[list[TreeNode]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise TreeError("a tree needs at least sources and a root layer")
        if any(size <= 0 for size in self.layer_sizes):
            raise TreeError(f"layer sizes must be positive: {self.layer_sizes}")
        if self.layer_sizes[-1] != 1:
            raise TreeError(
                f"the last layer must be the single root, got {self.layer_sizes[-1]}"
            )
        for layer, size in enumerate(self.layer_sizes):
            parent_layer_size = (
                self.layer_sizes[layer + 1]
                if layer + 1 < len(self.layer_sizes)
                else None
            )
            self._layers.append([])
            for index in range(size):
                name = self._node_name(layer, index)
                parent = None
                if parent_layer_size is not None:
                    parent_index = index * parent_layer_size // size
                    parent = self._node_name(layer + 1, parent_index)
                node = TreeNode(name, layer, index, parent)
                self.nodes[name] = node
                self._layers[layer].append(node)
                if parent is not None:
                    self._children.setdefault(parent, []).append(name)

    def _node_name(self, layer: int, index: int) -> str:
        if layer == 0:
            return f"source-{index}"
        if layer == len(self.layer_sizes) - 1:
            return "root"
        return f"l{layer}-{index}"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of layers, sources included."""
        return len(self.layer_sizes)

    @property
    def sampling_layer_count(self) -> int:
        """Layers that run the sampling algorithm (everything above sources)."""
        return self.depth - 1

    def layer(self, layer: int) -> list[TreeNode]:
        """All nodes of one layer, in index order (a copy of the memo)."""
        if not 0 <= layer < self.depth:
            raise TreeError(f"no layer {layer} in a {self.depth}-layer tree")
        return list(self._layers[layer])

    @property
    def sources(self) -> list[TreeNode]:
        """The bottom (source) layer."""
        return self.layer(0)

    @property
    def root(self) -> TreeNode:
        """The root node."""
        return self.nodes["root"]

    @property
    def sampling_nodes(self) -> list[TreeNode]:
        """All non-source nodes, bottom-up, root last."""
        return [node for layer in self._layers[1:] for node in layer]

    def node(self, name: str) -> TreeNode:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TreeError(f"no such node: {name!r}") from None

    def children(self, name: str) -> list[TreeNode]:
        """Direct children of a node (empty for sources)."""
        self.node(name)
        return [self.nodes[child] for child in self._children.get(name, [])]

    def subtree_source_count(self, name: str) -> int:
        """How many sources ultimately feed a node."""
        node = self.node(name)
        if node.layer == 0:
            return 1
        return sum(
            self.subtree_source_count(child.name)
            for child in self.children(name)
        )

    def path_to_root(self, name: str) -> list[str]:
        """Node names from ``name`` up to and including the root."""
        node = self.node(name)
        path = [node.name]
        while node.parent is not None:
            node = self.node(node.parent)
            path.append(node.name)
        return path


def paper_tree() -> LogicalTree:
    """The evaluation topology: 8 sources, 4 L1, 2 L2, 1 root (§V-A)."""
    return LogicalTree([8, 4, 2, 1])
