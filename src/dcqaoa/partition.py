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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ConnectivityExceededError
from .graphs import Graph, components_excluding


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

    Raises ConnectivityExceededError when no set of fewer than k nodes
    disconnects g.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        raise ValueError(f"graph with {g.n} nodes fits the {k}-node budget; no split needed")
    for size in range(k):
        for separator in combinations(g.nodes, size):
            comps = components_excluding(g, frozenset(separator))
            if len(comps) >= 2:
                return _build_split(g, separator, comps)
    raise ConnectivityExceededError(k, g.n)


def _build_split(g: Graph, separator: tuple[int, ...], comps: list[set[int]]) -> SeparationResult:
    half = len(comps) // 2
    side1 = set(separator).union(*comps[:half])
    side2 = set(separator).union(*comps[half:])
    # each side misses at least one component of the other, so both shrink
    assert len(side1) < g.n and len(side2) < g.n
    edges1: list[tuple[int, int]] = []
    edges2: list[tuple[int, int]] = []
    for u, v in g.edges:
        if u in side1 and v in side1:
            # separator-internal edges land here too, so the sides share no edge
            edges1.append((u, v))
        elif u in side2 and v in side2:
            edges2.append((u, v))
        else:
            raise AssertionError(f"edge ({u}, {v}) crosses the separator")
    # the edges are a filtered subsequence of g's canonical, sorted edge tuple
    g1 = Graph(nodes=tuple(sorted(side1)), edges=tuple(edges1))
    g2 = Graph(nodes=tuple(sorted(side2)), edges=tuple(edges2))
    return SeparationResult(separator=separator, subgraphs=(g1, g2))


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
