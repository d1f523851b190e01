"""Node-separator partitioning.

Splits a graph into exactly two overlapping subgraphs by removing a
shortest path-shaped node separator; separator nodes are duplicated into
both subgraphs so no edge is lost. A disconnected graph already falls apart
without removing anything, so its separator is empty. Also provides the
node-redundancy-level metric that scores a partition by how much
duplication it introduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConnectivityExceededError, PartitionProgressError
from .graphs import Graph, components_excluding, dfs_connected_components


@dataclass(frozen=True)
class SeparationResult:
    """A separator path and the two subgraphs it induces.

    The separator nodes belong to both subgraphs; the subgraphs' edge sets
    are disjoint and cover the original edge set, and no edge joins the two
    non-separator sides. The separator is empty when the graph was already
    disconnected.
    """

    separator: tuple[int, ...]
    subgraphs: tuple[Graph, Graph]


def iter_paths(g: Graph, length: int):
    """Yield simple paths of exactly `length` distinct nodes, lazily.

    One orientation per path (the lexicographically smaller of the two),
    in ascending lexicographic order of the node sequence. Laziness matters:
    candidate counts grow like m^(length-1) and the separator search only
    needs the first acceptable one.
    """
    if length < 1:
        raise ValueError("path length must be >= 1")
    if length == 1:
        for v in g.nodes:
            yield [v]
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
    """Find a shortest path-shaped node separator splitting g in two.

    Tries separator sizes 0, 1, ..., k-1 in order. Size 0 applies to a
    disconnected graph: its components, ascending by smallest member, are
    split into a first and a second half, which keeps the recursion depth
    logarithmic in the component count. Within a size >= 1, candidate paths
    are tried in ascending lexicographic order and the first one whose
    removal leaves exactly two connected components wins. Candidates leaving
    three or more components are rejected.

    Raises ConnectivityExceededError when no separator of fewer than k nodes
    exists, and PartitionProgressError if a split fails to shrink the graph.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n <= k:
        raise ValueError(f"graph with {g.n} nodes fits the {k}-node budget; no split needed")
    comps = dfs_connected_components(g)
    if len(comps) > 1:
        half = len(comps) // 2
        return _build_split(g, (), set().union(*comps[:half]), set().union(*comps[half:]))

    for counter in range(1, k):
        for path in iter_paths(g, counter):
            separator = frozenset(path)
            comps = components_excluding(g, separator)
            if len(comps) != 2:
                continue
            return _build_split(g, tuple(path), comps[0], comps[1])
    raise ConnectivityExceededError(k, g.n)


def _build_split(
    g: Graph, path: tuple[int, ...], comp1: set[int], comp2: set[int]
) -> SeparationResult:
    separator = set(path)
    side1 = comp1 | separator
    side2 = comp2 | separator
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
    g1 = Graph.from_edges(edges1, nodes=side1)
    g2 = Graph.from_edges(edges2, nodes=side2)
    if g1.n >= g.n or g2.n >= g.n:
        raise PartitionProgressError(
            f"split of {g.n} nodes produced subgraphs of {g1.n} and {g2.n} nodes"
        )
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
