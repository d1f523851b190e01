"""Node-separator partitioning.

Splits a graph into exactly two overlapping subgraphs by removing a
shortest path-shaped node separator. Every separator node goes to the first
subgraph, which also takes the separator-internal edges and so fixes every
separator bit. A separator node goes to the second subgraph as well exactly
when it has an edge there. No edge is lost, and the two subgraphs are the
ones the solver solves. The separator may leave any number of components:
the first half of them, ascending by smallest node, forms one side and the
rest the other. A disconnected graph already falls apart at the empty path,
so its separator is empty. Also provides the node-redundancy-level metric
that scores a partition by how much duplication it introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConnectivityExceededError
from .graphs import Graph, components_excluding


@dataclass(frozen=True)
class SeparationResult:
    """A separator path and the two subgraphs it induces.

    Every separator node is in the first subgraph, and it is in the second
    exactly when it has an edge there; separator-internal edges are in the
    first. The subgraphs' edge sets are disjoint and cover the original edge
    set, and no edge joins the two non-separator sides. The separator is
    empty when the graph was already disconnected.
    """

    separator: tuple[int, ...]
    subgraphs: tuple[Graph, Graph]


def iter_paths(g: Graph, length: int):
    """Yield simple paths of exactly `length` distinct nodes, lazily.

    One orientation per path (the lexicographically smaller of the two),
    in ascending lexicographic order of the node sequence; length 0 yields
    the empty path once. Laziness matters: candidate counts grow like
    m^(length-1) and the separator search only needs the first acceptable one.
    """
    if length < 0:
        raise ValueError("path length must be >= 0")
    if length == 0:
        yield []
        return
    adj = g.adjacency

    def extend(path: list[int], used: set[int]):
        if len(path) == length:
            if path <= path[::-1]:
                yield list(path)
            return
        for w in adj[path[-1]]:
            if w not in used:
                path.append(w)
                used.add(w)
                yield from extend(path, used)
                path.pop()
                used.remove(w)

    for start in g.nodes:
        yield from extend([start], {start})


def nlgp(g: Graph, k: int) -> SeparationResult:
    """Find a shortest path-shaped node separator that disconnects g.

    Tries separator sizes 0, 1, ..., k-1 in order and, within a size, the
    paths of `iter_paths` in ascending lexicographic order; size 0 is the
    empty path, which disconnects exactly the graphs that are already
    disconnected. The first candidate whose removal leaves c >= 2 components
    wins: the first c // 2 components, ascending by smallest member, form
    one side and the rest the other, which keeps the tree depth
    logarithmic in the component count.

    Raises ConnectivityExceededError when no path of fewer than k nodes
    disconnects g.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        raise ValueError(f"graph with {g.n} nodes fits the {k}-node budget; no split needed")
    for size in range(k):
        for path in iter_paths(g, size):
            comps = components_excluding(g, frozenset(path))
            if len(comps) >= 2:
                return _build_split(g, tuple(path), comps)
    raise ConnectivityExceededError(k, g.n)


def _build_split(g: Graph, path: tuple[int, ...], comps: list[set[int]]) -> SeparationResult:
    separator = set(path)
    half = len(comps) // 2
    side1 = separator.union(*comps[:half])
    rest = set().union(*comps[half:])
    # the first side fixes every separator bit, so the second keeps only
    # the separator nodes with an edge into its components
    side2 = rest.union(v for v in separator if not rest.isdisjoint(g.adjacency[v]))
    # each side misses at least one component of the other, so both shrink
    assert len(side1) < g.n and len(side2) < g.n
    edges1: list[tuple[int, int]] = []
    edges2: list[tuple[int, int]] = []
    for u, v in g.edges:
        if u in separator and v in separator:
            # separator-internal edges go to the first subgraph only,
            # keeping the two edge sets disjoint
            edges1.append((u, v))
        elif u in side1 and v in side1:
            edges1.append((u, v))
        elif u in side2 and v in side2:
            edges2.append((u, v))
        else:
            raise AssertionError(f"edge ({u}, {v}) crosses the separator")
    # the edges are a filtered subsequence of g's canonical, sorted edge tuple
    g1 = Graph(nodes=tuple(sorted(side1)), edges=tuple(edges1))
    g2 = Graph(nodes=tuple(sorted(side2)), edges=tuple(edges2))
    return SeparationResult(separator=tuple(path), subgraphs=(g1, g2))


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
