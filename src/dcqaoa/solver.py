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
whose QAOA expectations are equal, so sharing is exact.

Leaves of one shape, equal ``(n, edge_positions)``, share more: the first
such leaf's key, its ``cut_table`` and its output distribution. Equal edge
positions give a bitwise-equal table, hence the same key and angles, hence
a bitwise-equal distribution, so this sharing is exact too. A distribution
is held only while a later leaf of its shape still waits to draw, which the
pre-order leaf list, complete before the first leaf is solved, tells in
advance. Every leaf still draws its own sample from its own seed, in
pre-order.

Maps carry each row's cut (see ``SolutionMap``), so re-ranking above the
leaves sorts by cuts the leaves read off their tables and ``combine`` summed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import qaoa
from .errors import ReconstructionError
from .graphs import Graph, SolutionMap, refined_form
from .partition import nlgp, nrl
from .qaoa import DEFAULT_BUDGET, DEFAULT_RESTARTS, MAX_SHOTS, AnsatzParams
from .reconstruction import combine, rerank_by_cut, scheme_function
from .seeds import derive_seed


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
    return SolutionMap.from_rows(m.nodes, m.rows, [c * width for c in m.row_counts], m.cuts)


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
    order, cutting each leaf's map to its top t rows as soon as it is drawn,
    and merges from the end of the list, where each split finds its
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

    leaves = [(sub, seed) for node, sub, seed, _ in order if node.is_leaf]
    cache = LeafCache([sub for sub, _ in leaves])
    maps = [_top_rows(sub, _solve_leaf(sub, seed, cfg, cache), cfg) for sub, seed in leaves]

    done: list[tuple[Graph, SolutionMap]] = []
    while order:
        node, sub, _, depth = order.pop()
        if node.is_leaf:
            done.append((sub, maps.pop()))
            continue
        (g1, m1), (g2, m2) = done.pop(), done.pop()
        out = combine(g1, g2, weight_map(m1), weight_map(m2), cfg.scheme)
        if not out.row_counts:
            raise ReconstructionError(depth, sub.nodes)
        done.append((sub, _top_rows(sub, out, cfg)))
    return done[0][1], root


def _top_rows(g: Graph, m: SolutionMap, cfg: DcConfig) -> SolutionMap:
    """m re-ranked by cut on g, cut to its top t rows and rescaled to s."""
    return rescale(abridge(rerank_by_cut(g, m), cfg.t), cfg.s)


def tree_nrl(g: Graph, tree: PartitionNode) -> float:
    """Whole-run node redundancy: leaf subproblem sizes over the input size."""
    leaf_graphs = [Graph(nodes=leaf.nodes, edges=()) for leaf in tree.leaves()]
    return nrl(g, leaf_graphs)


class LeafCache:
    """What the leaves of one solve share (see the module docstring).

    ``angles`` maps a ``refined_form`` key to its optimized angles.
    ``waiting`` counts, per shape, the leaves not yet solved, and ``shapes``
    holds (key, cut table, distribution) of each shape that a later leaf
    still needs.
    """

    def __init__(self, leaves: list[Graph]):
        self.angles: dict[tuple, AnsatzParams] = {}
        self.waiting = Counter(map(_shape, leaves))
        self.shapes: dict[tuple, tuple] = {}


def _shape(g: Graph) -> tuple[int, bytes]:
    """(n, edge positions): leaves with equal shapes have equal cut tables."""
    return g.n, np.asarray(g.edge_positions, dtype=np.int64).tobytes()


def _solve_leaf(g: Graph, seed: int, cfg: DcConfig, cache: LeafCache) -> SolutionMap:
    """QAOA on one leaf: optimize (or reuse an isomorphic leaf's angles), then sample."""
    seed = derive_seed(seed, "leaf", g.nodes)
    shape = _shape(g)
    cache.waiting[shape] -= 1
    if shape in cache.shapes:
        key, table, probs = cache.shapes[shape]
        # cached_property reads the instance dict first, so g reuses the table
        g.__dict__["cut_table"] = table
    else:
        key, probs = refined_form(g), None
    if key not in cache.angles:
        cache.angles[key], _ = qaoa.optimize_params(
            g, cfg.p, seed=derive_seed(seed, "optimize"), budget=cfg.budget, restarts=cfg.restarts
        )
    params = cache.angles[key]
    if cache.waiting[shape]:
        if probs is None:
            probs = qaoa.output_distribution(g, params)
        cache.shapes[shape] = (key, g.cut_table, probs)
    else:
        cache.shapes.pop(shape, None)
    sample_seed = derive_seed(seed, "sample")
    return qaoa.sample_solution_map(g, params, cfg.s, seed=sample_seed, probs=probs)
