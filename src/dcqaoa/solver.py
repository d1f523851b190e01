"""Divide-and-conquer MaxCut driver.

Graphs larger than the qubit budget are split at the first smallest node
set that disconnects them (the empty set when already disconnected) until
every piece fits; then the leaves are solved and the two sampling
distributions of each split are merged under the combination criterion (a
plain product when the sides share no node). Each split solves exactly the
two subgraphs ``nlgp`` returns. At every tree node the map is re-ranked by
true cut size, truncated to the top-t entries, and rescaled to a fixed total
count.

Leaves share optimized angles within one solve: the first leaf of each
``graphs.refined_form`` key (in pre-order) runs the optimizer, and later
leaves with that key reuse its angles. Equal keys imply isomorphic leaves,
whose QAOA expectations are equal, so sharing is exact. Every leaf still
samples its own distribution from its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import qaoa
from .errors import ReconstructionError
from .graphs import Graph, SolutionMap, refined_form
from .partition import nlgp, nrl
from .qaoa import DEFAULT_BUDGET, DEFAULT_RESTARTS, MAX_SHOTS, AnsatzParams
from .reconstruction import combine, rerank_by_cut, scheme_function
from .seeds import derive_seed


# Optimized angles of one solve, keyed by the leaf's refined form.
AngleCache = dict[tuple, AnsatzParams]


@dataclass(frozen=True)
class DcConfig:
    """Knobs of one divide-and-conquer run."""

    p: int = 3
    t: int = 20
    s: int = 1000
    k: int = 8
    scheme: str = "minXmul"
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 1 <= self.s <= MAX_SHOTS:
            raise ValueError(f"s must be in 1..{MAX_SHOTS}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be >= 1")
        scheme_function(self.scheme)


@dataclass
class PartitionNode:
    """One node of the partition tree."""

    nodes: tuple[int, ...]
    separator: tuple[int, ...] = ()
    children: list["PartitionNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def preorder(self) -> list["PartitionNode"]:
        """This node and its descendants: parents before children, first child first."""
        out: list[PartitionNode] = []
        todo = [self]
        while todo:
            node = todo.pop()
            out.append(node)
            todo.extend(reversed(node.children))
        return out

    def leaves(self) -> list["PartitionNode"]:
        return [node for node in self.preorder() if node.is_leaf]

    def count(self) -> int:
        return len(self.preorder())

    def to_dict(self) -> list[dict]:
        """The tree as a pre-order list; ``children`` holds list indices."""
        nodes = self.preorder()
        position = {id(node): i for i, node in enumerate(nodes)}
        out = []
        for node in nodes:
            payload: dict = {"nodes": list(node.nodes)}
            if not node.is_leaf:
                payload["separator"] = list(node.separator)
                # node redundancy of the split: child sizes over this node's size
                payload["split_nrl"] = sum(len(c.nodes) for c in node.children) / len(node.nodes)
                payload["children"] = [position[id(c)] for c in node.children]
            out.append(payload)
        return out


def weight_map(m: SolutionMap) -> SolutionMap:
    """Multiply every count by the map's node count (subgraph size weighting)."""
    width = len(m.nodes)
    return SolutionMap.from_rows(m.nodes, m.rows, [c * width for c in m.row_counts])


def abridge(m: SolutionMap, t: int) -> SolutionMap:
    """First min(t, |m|) entries of an already sorted map, zero counts dropped."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return m.take([i for i, c in enumerate(m.row_counts) if c > 0][:t])


def rescale(m: SolutionMap, s: int) -> SolutionMap:
    """Rescale counts to a total of at most s without dropping a row s allows.

    Each count becomes floor(s * c / total) when none of them floors to zero.
    Otherwise each of the first r = min(|m|, s) rows gets
    1 + floor((s - r) * c / total), so every kept row counts at least 1.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    total = m.total()
    if total <= 0:
        raise ValueError("cannot rescale a map with zero total count")
    scaled = [(s * c) // total for c in m.row_counts]
    if 0 in scaled:
        r = min(len(scaled), s)
        scaled = [1 + ((s - r) * c) // total for c in m.row_counts[:r]]
    return m.take(list(range(len(scaled))), scaled)


def dc_qaoa(g: Graph, cfg: DcConfig) -> SolutionMap:
    """Solve MaxCut by partition, QAOA on the leaves, and merge."""
    solution, _ = dc_qaoa_traced(g, cfg)
    return solution


def dc_qaoa_traced(g: Graph, cfg: DcConfig) -> tuple[SolutionMap, PartitionNode]:
    """Like dc_qaoa but also returns the partition tree for reporting.

    Splits the whole tree into one pre-order list first, so a partition
    failure raises before any QAOA runs; then solves the leaves in list
    order and merges from the end of the list, where each split finds its
    children's maps on top of a stack. No pass recurses, so any depth works.
    """
    if g.n == 0:
        raise ValueError("graph has no nodes")
    root = PartitionNode(nodes=g.nodes)
    order: list[tuple[PartitionNode, Graph, int, int]] = []
    todo = [(root, g, cfg.seed, 0)]
    while todo:
        node, sub, seed, depth = todo.pop()
        order.append((node, sub, seed, depth))
        if sub.n <= cfg.k:
            continue
        split = nlgp(sub, cfg.k)
        g1, g2 = split.subgraphs
        node.separator = split.separator
        node.children = [PartitionNode(nodes=g1.nodes), PartitionNode(nodes=g2.nodes)]
        # g1 goes on top, so its whole subtree comes next in pre-order
        todo += [(child, part, derive_seed(seed, "child", part.nodes), depth + 1)
                 for child, part in zip(node.children[::-1], (g2, g1))]

    angles: AngleCache = {}
    maps = [_solve_leaf(sub, seed, cfg, angles) for node, sub, seed, _ in order if node.is_leaf]

    done: list[tuple[Graph, SolutionMap]] = []
    while order:
        node, sub, _, depth = order.pop()
        if node.is_leaf:
            out = maps.pop()
        else:
            (g1, m1), (g2, m2) = done.pop(), done.pop()
            out = combine(g1, g2, weight_map(m1), weight_map(m2), cfg.scheme)
            if not out.row_counts:
                raise ReconstructionError(depth, sub.nodes)
        out = rerank_by_cut(sub, out)
        out = abridge(out, cfg.t)
        out = rescale(out, cfg.s)
        done.append((sub, out))
    return done[0][1], root


def tree_nrl(g: Graph, tree: PartitionNode) -> float:
    """Whole-run node redundancy: leaf subproblem sizes over the input size."""
    leaf_graphs = [Graph(nodes=leaf.nodes, edges=()) for leaf in tree.leaves()]
    return nrl(g, leaf_graphs)


def _solve_leaf(g: Graph, seed: int, cfg: DcConfig, angles: AngleCache) -> SolutionMap:
    """QAOA on one leaf: optimize (or reuse an isomorphic leaf's angles), then sample."""
    seed = derive_seed(seed, "leaf", g.nodes)
    key = refined_form(g)
    if key not in angles:
        angles[key], _ = qaoa.optimize_params(
            g, cfg.p, seed=derive_seed(seed, "optimize"), budget=cfg.budget, restarts=cfg.restarts
        )
    return qaoa.sample_solution_map(g, angles[key], cfg.s, seed=derive_seed(seed, "sample"))
