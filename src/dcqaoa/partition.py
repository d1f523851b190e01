"""Node-separator partitioning.

Splits a graph into exactly two overlapping subgraphs by removing a
smallest node set that disconnects it, the first in `combinations` order.
Every separator node is in both subgraphs; the first also takes the
separator-internal edges, so no edge is lost or repeated, and the two
subgraphs are the ones the solver solves. The separator may leave any
number of components: the first half of them, ascending by smallest node,
forms one side and the rest the other. A disconnected graph already falls
apart at the empty set, so its separator is empty. Also provides the
node-redundancy-level metric that scores a partition by how much
duplication it introduced.

Separators of 0 and 1 nodes, the only ones a chain of blocks needs, are
read off the graph's lowpoint forest (``Graph.lowpoints``): its trees are
the components, and its cut vertices and the components each leaves are
subtree intervals of the pre-order. A split at such a separator hands each
piece the parent's forest restricted to the piece, so one DFS serves the
whole chain of splits below an input; see `nlgp` for why the restriction
stays a lowpoint forest. Larger separators are found by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

import numpy as np

from .errors import ConnectivityExceededError
from .graphs import Graph, Lowpoints, components_excluding


@dataclass(frozen=True)
class SeparationResult:
    """A node separator and the two subgraphs it induces.

    Every separator node is in both subgraphs; separator-internal edges are
    in the first. The subgraphs' edge sets are disjoint and cover the
    original edge set, and no edge joins the two non-separator sides. The
    separator is empty when the graph was already disconnected.
    """

    separator: tuple[int, ...]
    subgraphs: tuple[Graph, Graph]


def nlgp(g: Graph, k: int) -> SeparationResult:
    """Find a smallest node separator that disconnects g.

    Tries separator sizes 0, 1, ..., k-1 in order and, within a size, the
    node sets of `itertools.combinations(g.nodes, size)`; size 0 is the
    empty set, which disconnects exactly the graphs that are already
    disconnected. The first set whose removal leaves c >= 2 components
    wins: the first c // 2 components, ascending by smallest member, form
    one side and the rest the other, which keeps the tree depth
    logarithmic in the component count.

    Every node v of the chosen set S is adjacent to every component: a
    component C that v does not touch would stay a component of g - (S - {v}),
    so the smaller set S - {v} would already disconnect g and would have
    been tried first.

    Sizes 0 and 1 come from ``g.lowpoints``. Two or more roots mean the
    trees are the components and the empty set wins. Otherwise the first
    single node is the smallest cut vertex: a non-root v with a child c of
    ``low[c] >= disc[v]``, or the root when it has two or more children. The
    components of g - v are those children's subtrees, the pre-order
    intervals ``[disc[c], disc[c] + size[c])``, plus the rest.

    Each piece of such a split inherits the forest restricted to its nodes,
    with ``disc``, ``low`` and ``size`` unchanged. The piece is v plus whole
    components of g - v, and every component but the rest is the subtree of
    a child c of v with ``low[c] >= disc[v]``, whose back edges end at v or
    inside it. So every kept node still reaches the piece's root by tree
    edges (v is the root when the rest is dropped), and every non-tree edge
    still joins an ancestor to a descendant. The ``low`` of each kept
    non-root x stays exact: a dropped subtree below x reached no ``disc``
    under v's, which is not under x's, and the kept subtrees' lows never
    depended on the rest. Only a root's ``low`` and ``size`` may go stale,
    and no rule reads them.

    Raises ConnectivityExceededError when no set of fewer than k nodes
    disconnects g.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        raise ValueError(f"graph with {g.n} nodes fits the {k}-node budget; no split needed")
    forest = g.lowpoints
    disc = forest.disc
    roots = np.flatnonzero(forest.parent < 0)
    if len(roots) >= 2:
        # each tree is one pre-order interval, starting at its root
        tree = np.searchsorted(np.sort(disc[roots]), disc, side="right") - 1
        return _build_split(g, (), tree, forest)
    if k >= 2:
        v = _first_cut_vertex(forest)
        if v is not None:
            return _build_split(g, (g.nodes[v],), _components_around(forest, v), forest)
    for size in range(2, k):
        for separator in combinations(g.nodes, size):
            comps = components_excluding(g, frozenset(separator))
            if len(comps) >= 2:
                label = np.full(g.n, -1)
                for i, comp in enumerate(comps):
                    label[np.searchsorted(g.nodes, sorted(comp))] = i
                return _build_split(g, separator, label, None)
    raise ConnectivityExceededError(k, g.n)


def _first_cut_vertex(forest: Lowpoints) -> int | None:
    """Position of the smallest cut vertex of a one-tree forest, if any."""
    disc, low, _, parent = forest
    child = np.flatnonzero(parent >= 0)
    above = parent[child]
    at_root = parent[above] < 0
    cut = np.zeros(len(parent), dtype=bool)
    cut[above[~at_root & (low[child] >= disc[above])]] = True
    # every child of the root passes that test, so the root needs two children
    if np.count_nonzero(at_root) >= 2:
        cut[above[at_root][0]] = True
    hits = np.flatnonzero(cut)
    return int(hits[0]) if len(hits) else None


def _components_around(forest: Lowpoints, v: int) -> np.ndarray:
    """Component label of each position in g - v (-1 at v itself): 0 for
    the rest, i >= 1 for the subtree of v's i-th separated child."""
    disc, low, size, parent = forest
    child = np.flatnonzero((parent == v) & (low >= disc[v]))
    child = child[np.argsort(disc[child])]
    start = disc[child]
    i = np.searchsorted(start, disc, side="right") - 1
    inside = (i >= 0) & (disc < start[i] + size[child][i])
    label = np.where(inside, i + 1, 0)
    label[v] = -1
    return label


def _build_split(
    g: Graph, separator: tuple[int, ...], label: np.ndarray, forest: Lowpoints | None
) -> SeparationResult:
    """The split whose components are the positions of equal `label` >= 0,
    with -1 marking the separator; pieces inherit `forest` when given."""
    members = np.flatnonzero(label >= 0)
    ids, first = np.unique(label[members], return_index=True)
    ranked = ids[np.argsort(first)]
    chosen = np.zeros(label.max() + 1, dtype=bool)
    chosen[ranked[: len(ranked) // 2]] = True
    side1 = (label < 0) | chosen[label]
    side2 = (label < 0) | ~chosen[label]
    # each side misses at least one component of the other, so both shrink
    assert not side1.all() and not side2.all()
    pu, pv = g.edge_positions.T
    # separator-internal edges land in side 1 too, so the sides share no edge
    edges1 = side1[pu] & side1[pv]
    edges2 = ~edges1
    assert not (edges2 & ~(side2[pu] & side2[pv])).any(), "an edge crosses the separator"
    return SeparationResult(
        separator=separator,
        subgraphs=(_piece(g, side1, edges1, forest), _piece(g, side2, edges2, forest)),
    )


def _piece(g: Graph, keep: np.ndarray, edges: np.ndarray, forest: Lowpoints | None) -> Graph:
    """The subgraph on the kept positions with the chosen edges, its edge
    positions (and the restricted forest, when given) already cached."""
    # the edges are a filtered subsequence of g's canonical, sorted edge tuple
    sub = Graph(
        nodes=tuple(compress(g.nodes, keep.tolist())),
        edges=tuple(compress(g.edges, edges.tolist())),
    )
    position = np.cumsum(keep) - 1
    # cached_property reads the instance dict first, so these skip the builds
    sub.__dict__["edge_positions"] = position[g.edge_positions[edges]]
    if forest is not None:
        disc, low, size, parent = (a[keep] for a in forest)
        inside = parent >= 0
        inside[inside] = keep[parent[inside]]
        parent = np.where(inside, position[parent], -1).astype(np.int32)
        sub.__dict__["lowpoints"] = Lowpoints(disc, low, size, parent)
    return sub


def nrl(original: Graph, parts: list[Graph]) -> float:
    """Node redundancy level: total subgraph node count over original node count."""
    if not parts:
        raise ValueError("parts must be non-empty")
    covered = set()
    for part in parts:
        covered.update(part.nodes)
    if covered != set(original.nodes):
        raise ValueError("parts do not cover the original node set")
    return sum(p.n for p in parts) / original.n
