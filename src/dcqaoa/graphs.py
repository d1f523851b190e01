"""Undirected unweighted graphs, cut evaluation, and sampling-distribution maps.

Conventions used everywhere in this package:

* Nodes are integer labels in [0, 2^63); a graph stores them sorted.
* A cut assignment gives bit ``j`` to the ``j``-th smallest node of the
  associated node set (1 = cut set S, 0 = complement). Inside the package
  it is a 0/1 ``uint8`` row; as text it is a string over ``{0,1}``.
* A ``SolutionMap`` pairs assignments with non-negative sample counts and
  remembers which node set the assignment positions index. It holds its
  assignments as 0/1 rows. Text becomes rows only in its dict constructor,
  and rows become text only through ``row_strings``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import hashlib
import operator

import numpy as np

from .errors import (
    EdgeListParseError,
    GenerationError,
    GraphValidationError,
    SizeLimitError,
)

BRUTE_FORCE_LIMIT = 24
_GENERATION_RETRIES = 200
# row x edge bytes unpacked at once by column_cuts: 64 KiB stays in L2 and
# below glibc's default 128 KiB mmap threshold, so a chunk reuses heap memory
# instead of a fresh mapping that the kernel faults in and zeroes
_CUT_BLOCK_ELEMENTS = 1 << 16
# edges column_cuts sums per row in one uint8 lane; one more could wrap it
_CUT_LANE_EDGES = (1 << 8) - 1


class Lowpoints(NamedTuple):
    """Depth-first forest of a graph, one ``int32`` entry per node position.

    ``disc`` is the pre-order index, ``low`` the smallest ``disc`` reachable
    from the node's subtree by tree edges down and at most one non-tree
    edge, ``size`` the subtree's node count and ``parent`` the tree parent's
    position (-1 at a root). The nodes with ``disc`` in
    ``[disc[c], disc[c] + size[c])`` are exactly c's subtree. Forests that
    ``partition.nlgp`` hands to its pieces keep the parent's ``disc``,
    ``low`` and ``size``, so their ``disc`` values need not be contiguous.
    There ``size`` is only the width of the ``disc`` interval: the kept
    positions inside it are still exactly the subtree, but the ancestors of
    a dropped subtree keep counting its nodes, so ``size`` may exceed the
    subtree's node count at any position. A root's ``low`` may also count
    nodes the piece lacks; no rule here reads a root's ``low`` or ``size``.
    """

    disc: np.ndarray
    low: np.ndarray
    size: np.ndarray
    parent: np.ndarray


def _label(x) -> int:
    """x as a plain int (numpy integers too); any other type is refused."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphValidationError(f"node label {x!r} is not an integer") from None


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: sorted node tuple plus sorted (u < v) edge tuple.

    Use :meth:`from_edges` to build one from raw data; it canonicalizes and
    validates, and keeps every label as a plain int in [0, 2^63) (numpy
    integers too). Direct construction assumes canonical fields.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] = (),
        nodes: Iterable[int] = (),
    ) -> "Graph":
        node_set = set(map(_label, nodes))
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = _label(u), _label(v)
            if u == v:
                raise GraphValidationError(f"self-loop at node {u}")
            if u < 0 or v < 0:
                raise GraphValidationError(f"negative node label in edge ({u}, {v})")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphValidationError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            node_set.update(e)
        # labels must fit int64: numpy finds bit positions (edge_positions, combine)
        if any(not 0 <= n < 1 << 63 for n in node_set):
            raise GraphValidationError("node label outside [0, 2^63)")
        return cls(nodes=tuple(sorted(node_set)), edges=tuple(sorted(seen)))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @cached_property
    def edge_positions(self) -> np.ndarray:
        """(m, 2) array of bit positions for each edge, for vectorized cuts."""
        return np.searchsorted(self.nodes, np.reshape(self.edges, (-1, 2)))

    @cached_property
    def lowpoints(self) -> Lowpoints:
        """Hopcroft-Tarjan lowpoint forest of one iterative DFS.

        Roots are taken in node order, so each tree's root is its smallest
        node; neighbours are visited in ascending order.
        """
        return _lowpoint_forest(self.n, self.edge_positions)

    @cached_property
    def cut_table(self) -> np.ndarray:
        """Read-only ``int16`` cuts of basis indices b < 2^(n-1) (MSB first, bit 0
        is 0); flipping every bit keeps a cut, so they hold every cut. Built
        ``_CUT_BLOCK_ELEMENTS // n`` rows at a time, so each block's rows and
        unpacked cut bits stay under 64 KiB, up to BRUTE_FORCE_LIMIT nodes."""
        n = self.n
        if n == 0:
            raise ValueError("empty graph has no cut assignments")
        if n > BRUTE_FORCE_LIMIT:
            raise SizeLimitError(f"{n} nodes exceeds exhaustive limit {BRUTE_FORCE_LIMIT}")
        half = 1 << (n - 1)
        step = max(1, _CUT_BLOCK_ELEMENTS // n)
        table = np.empty(half, dtype=np.int16)
        for lo in range(0, half, step):
            rows = index_rows(np.arange(lo, min(lo + step, half)), n)
            table[lo : lo + step] = cut_values(self, rows)
        table.flags.writeable = False
        return table

    def digest(self) -> str:
        """Stable content hash of the canonical serialization."""
        return hashlib.sha256(serialize_edge_list(self).encode("utf-8")).hexdigest()


def refined_form(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Isomorphism key: node count plus the edges under a colour-refined order.

    Colour refinement starts every node at colour 0 and gives it, each round,
    the rank of (its colour, its neighbours' sorted colours) among the
    distinct such signatures, until a round adds no class. Nodes are then
    numbered by (colour, label), so a form is g relabelled and equal forms
    imply isomorphic graphs. The converse holds when every class is a single
    node; tied nodes keep label order (paths 0-1-2-3 and 0-2-1-3 differ).
    """
    adjacency, colour = g.adjacency, dict.fromkeys(g.nodes, 0)
    while True:
        sig = {v: (colour[v], tuple(sorted(colour[w] for w in nb))) for v, nb in adjacency.items()}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        if len(rank) == len(set(colour.values())):
            break
        colour = {v: rank[s] for v, s in sig.items()}
    label = {v: i for i, v in enumerate(sorted(g.nodes, key=lambda v: (colour[v], v)))}
    return g.n, tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in g.edges))


class SolutionMap:
    """Ordered assignment -> count map over a fixed node set, stored as bit rows.

    ``rows`` is a read-only C-contiguous ``uint8`` array of shape
    ``(r, len(nodes))`` whose row i holds the 0/1 bits of entry i;
    ``row_counts`` holds the r counts beside it as exact Python ints (products
    of weighted counts outgrow 64 bits on large graphs). ``cuts`` is an
    ``int64`` array of the r rows' cut sizes on the graph that made the map,
    or None when no cut is known: sampling reads them off the leaf's cut
    table, ``combine`` adds its two sides' cuts, and ``take`` carries them,
    so ``rerank_by_cut`` scores edges only for maps built without cuts. Only
    ``rerank_by_cut`` sets entry order (larger cut first); sampling and
    ``combine`` return entries in unspecified order.

    ``SolutionMap(nodes, {assignment: count})`` validates outside input;
    :meth:`from_rows` builds maps from rows the package made.
    ``counts`` gives the entries as a ``{str: int}`` dict in entry order, built
    on first access; treat it as read-only.
    """

    __slots__ = ("nodes", "rows", "row_counts", "cuts", "_counts")

    def __init__(self, nodes: Iterable[int], counts: dict[str, int] | None = None):
        nodes = tuple(nodes)
        if list(nodes) != sorted(set(nodes)):
            raise ValueError("node set must be strictly increasing")
        counts = dict(counts or {})
        width = len(nodes)
        for key, cnt in counts.items():
            if len(key) != width or key.strip("01"):
                raise ValueError(f"bad assignment {key!r} for {width} nodes")
            if not isinstance(cnt, int) or cnt < 0:
                raise ValueError(f"count for {key!r} must be a non-negative integer")
        text = np.frombuffer("".join(counts).encode("ascii"), dtype=np.uint8)
        rows = text.reshape(len(counts), width) - np.uint8(ord("0"))
        self._init(nodes, rows, list(counts.values()), None)
        self._counts = counts

    @classmethod
    def from_rows(
        cls, nodes: tuple[int, ...], rows: np.ndarray, counts, cuts=None
    ) -> "SolutionMap":
        """Map whose entry i is (rows[i], counts[i]), with cut cuts[i] when given.

        `nodes` must be strictly increasing, the rows distinct, the counts
        non-negative ints and the cuts those of the rows; only the arrays'
        shapes, dtype and values are checked. The map keeps `rows` and an
        ``int64`` `cuts` (made read-only) without copying when they are
        already C-contiguous.
        """
        m = cls._from_known_rows(nodes, rows, counts, cuts)
        if m.rows.size and m.rows.max() > 1:
            raise ValueError("rows must hold only 0/1 values")
        return m

    @classmethod
    def _from_known_rows(
        cls, nodes: tuple[int, ...], rows: np.ndarray, counts, cuts=None
    ) -> "SolutionMap":
        """:meth:`from_rows` for rows sliced or merged from other maps' rows,
        which hold only 0/1 already: the values are not scanned again."""
        if not isinstance(rows, np.ndarray) or rows.dtype != np.uint8:
            raise ValueError("rows must be a uint8 numpy array")
        if rows.ndim != 2 or rows.shape != (len(counts), len(nodes)):
            raise ValueError(
                f"rows of shape {rows.shape} do not fit {len(counts)} counts "
                f"over {len(nodes)} nodes"
            )
        if cuts is not None:
            cuts = np.ascontiguousarray(cuts, dtype=np.int64)
            if cuts.shape != (len(counts),):
                raise ValueError(f"cuts of shape {cuts.shape} do not fit {len(counts)} counts")
            cuts.flags.writeable = False
        m = cls.__new__(cls)
        m._init(tuple(nodes), rows, list(counts), cuts)
        return m

    def _init(
        self, nodes: tuple[int, ...], rows: np.ndarray, counts: list[int], cuts
    ) -> None:
        rows = np.ascontiguousarray(rows)
        rows.flags.writeable = False
        self.nodes = nodes
        self.rows = rows
        self.row_counts = counts
        self.cuts = cuts
        self._counts = None

    @property
    def counts(self) -> dict[str, int]:
        if self._counts is None:
            self._counts = dict(zip(row_strings(self.rows), self.row_counts))
        return self._counts

    def __eq__(self, other):
        if not isinstance(other, SolutionMap):
            return NotImplemented
        return self.nodes == other.nodes and self.counts == other.counts

    __hash__ = None

    def __repr__(self) -> str:
        return f"SolutionMap(nodes={self.nodes!r}, counts={self.counts!r})"

    def total(self) -> int:
        return sum(self.row_counts)

    def take(self, indices: list[int], counts: list[int] | None = None) -> "SolutionMap":
        """The entries at `indices`, in that order, optionally with new counts."""
        if counts is None:
            counts = [self.row_counts[i] for i in indices]
        cuts = None if self.cuts is None else self.cuts[indices]
        return SolutionMap._from_known_rows(self.nodes, self.rows[indices], counts, cuts)

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "counts": dict(self.counts)}


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated integer pairs, one edge per line.

    '#' starts a comment; a single-token line declares an isolated node.
    """
    edges: list[tuple[int, int]] = []
    isolated: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer token in {line!r}") from None
        if len(values) == 1:
            isolated.append(values[0])
        elif len(values) == 2:
            edges.append((values[0], values[1]))
        else:
            raise EdgeListParseError(line_no, f"expected 1 or 2 tokens, got {len(values)}")
    return Graph.from_edges(edges, nodes=isolated)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form: edges sorted by (min, max), then isolated nodes."""
    touched = {u for e in g.edges for u in e}
    lines = [f"{u} {v}" for u, v in g.edges]
    lines.extend(str(v) for v in g.nodes if v not in touched)
    return "\n".join(lines) + ("\n" if lines else "")


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_edge_list(g))


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Connected Erdős–Rényi G(n, p) sample, deterministic for a fixed seed.

    Disconnected draws (more than one root in ``lowpoints``, which the
    returned graph keeps cached) are re-sampled with an incremented seed, up
    to a retry cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError("edge_prob must be in (0, 1]")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for attempt in range(_GENERATION_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        mask = rng.random(len(pairs)) < edge_prob
        g = Graph.from_edges(
            [e for e, keep in zip(pairs, mask) if keep], nodes=range(n)
        )
        if np.count_nonzero(g.lowpoints.parent < 0) == 1:
            return g
    raise GenerationError(
        f"no connected G({n}, {edge_prob}) sample within {_GENERATION_RETRIES} retries of seed {seed}"
    )


_CHAIN_BLOCKS = (2, 3, 4)


def random_chain_graph(n: int, seed: int) -> Graph:
    """Random chain of small complete blocks glued at single shared nodes.

    Produces sparse connected graphs whose biconnected pieces stay tiny, so
    single-node separators exist at every recursion level. This is the
    benchmark family for large instances: the separator search is cheap and
    exact optima decompose block-by-block (see chain_maxcut).
    """
    if n < 2:
        raise ValueError("chain graphs need at least 2 nodes")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    glue = 0
    next_label = 1
    while next_label < n:
        size = int(rng.choice(_CHAIN_BLOCKS))
        size = min(size, n - next_label + 1)
        block = [glue] + list(range(next_label, next_label + size - 1))
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                edges.append((block[i], block[j]))
        glue = block[-1]
        next_label += size - 1
    return Graph.from_edges(edges, nodes=range(n))


def chain_maxcut(g: Graph) -> int:
    """Exact MaxCut of any graph: the sum of its biconnected blocks' optima.

    Blocks are edge-disjoint and meet at cut vertices in a forest, so each
    block's optimum can be flipped to agree with its parent on their shared
    node. A block B costs 2^(|B|-1) assignments; raises SizeLimitError,
    before any enumeration, when the blocks cost more in total than one
    brute force of BRUTE_FORCE_LIMIT nodes. Every graph of at most
    BRUTE_FORCE_LIMIT nodes fits, since its blocks cost at most 2^(n-1).
    """
    blocks = _biconnected_blocks(g)
    cost = sum(1 << (len(nodes) - 1) for nodes, _ in blocks)
    budget = 1 << (BRUTE_FORCE_LIMIT - 1)
    if cost > budget:
        raise SizeLimitError(
            f"blocks need {cost} assignments, over the {budget} of a "
            f"{BRUTE_FORCE_LIMIT}-node brute force"
        )
    return sum(
        brute_force_maxcut(Graph.from_edges(edges, nodes=nodes))[0] for nodes, edges in blocks
    )


def _biconnected_blocks(g: Graph):
    """(nodes, edges) per biconnected component, read off ``g.lowpoints``.

    A tree edge (p, c) with ``low[c] >= disc[p]`` opens a block: p, plus the
    nodes below c that no deeper such edge claims. Every edge belongs to
    the block of its deeper endpoint (the larger ``disc``).
    """
    forest = g.lowpoints
    disc, low, parent = (a.tolist() for a in (forest.disc, forest.low, forest.parent))
    # block[x] is the child position whose tree edge opened x's block
    block = [-1] * g.n
    nodes: dict[int, set[int]] = {}
    for x in np.argsort(forest.disc).tolist():
        p = parent[x]
        if p < 0:
            continue
        if low[x] >= disc[p]:
            block[x] = x
            nodes[x] = {g.nodes[p]}
        else:
            block[x] = block[p]
        nodes[block[x]].add(g.nodes[x])
    edges: dict[int, list[tuple[int, int]]] = {b: [] for b in nodes}
    for e, (u, v) in zip(g.edges, g.edge_positions.tolist()):
        edges[block[u if disc[u] > disc[v] else v]].append(e)
    return [(nodes[b], edges[b]) for b in nodes]


def _lowpoint_forest(n: int, edge_positions: np.ndarray) -> Lowpoints:
    """Lowpoint forest of the graph on positions 0..n-1 with these edges."""
    # node v's neighbours, ascending, are neighbours[start[v]:start[v + 1]]
    ends = np.concatenate((edge_positions, edge_positions[:, ::-1]))
    ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
    neighbours = ends[:, 1].tolist()
    start = np.searchsorted(ends[:, 0], np.arange(n + 1)).tolist()
    # nxt[v] is the index of the next neighbour of v to scan
    nxt = start[:-1]
    disc, low, size, parent = [-1] * n, [0] * n, [1] * n, [-1] * n
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [root]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < start[v + 1]:
                nxt[v] = i + 1
                w = neighbours[i]
                if disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append(w)
                elif w != parent[v] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1]
                    size[p] += size[v]
                    if low[v] < low[p]:
                        low[p] = low[v]
    return Lowpoints(*(np.array(a, dtype=np.int32) for a in (disc, low, size, parent)))


def cut_values(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Cut size of each 0/1 row of an (r, n) array, packed 8 rows per byte."""
    if rows.ndim != 2 or rows.shape[1] != g.n:
        raise ValueError(f"rows of shape {rows.shape} do not match {g.n} nodes")
    # packing the contiguous transpose is 3-5x faster than packbits on axis 0
    columns = np.packbits(np.ascontiguousarray(rows.T), axis=1, bitorder="little")
    return column_cuts(g, columns, rows.shape[0])


def column_cuts(g: Graph, columns: np.ndarray, r: int) -> np.ndarray:
    """Cut size of each of r rows packed in (n, ceil(r/8)) uint8 columns, row
    8j + b in bit b of byte j.

    Each edge XORs its endpoint columns into a plane of cut bits; the planes
    are unpacked and summed per row as uint8, at most _CUT_LANE_EDGES and
    _CUT_BLOCK_ELEMENTS // r edges at a time, so no sum wraps and a chunk
    unpacks to at most 64 KiB, or to r bytes when one edge's row needs more.
    """
    pu, pv = g.edge_positions.T
    step = min(_CUT_LANE_EDGES, max(1, _CUT_BLOCK_ELEMENTS // max(1, r)))
    cuts = np.zeros(r, dtype=np.int64)
    for lo in range(0, g.m, step):
        planes = columns[pu[lo : lo + step]] ^ columns[pv[lo : lo + step]]
        bits = np.unpackbits(planes, axis=1, count=r, bitorder="little")
        cuts += bits.sum(axis=0, dtype=np.uint8)
    return cuts


def row_strings(rows: np.ndarray) -> list[str]:
    """Assignment strings of (r, n) 0/1 ``uint8`` rows: the one way rows become
    text. Text becomes rows only in the ``SolutionMap`` dict constructor."""
    r, n = rows.shape
    if n == 0:
        return [""] * r
    text = (rows + np.uint8(ord("0"))).tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, r * n, n)]


def lexicographic_order(rows: np.ndarray) -> np.ndarray:
    """Stable argsort of (r, n) 0/1 rows in the order of their assignment strings."""
    packed = np.packbits(rows, axis=1)
    if packed.shape[1] == 0:
        return np.arange(rows.shape[0])
    return np.argsort(packed.view(f"V{packed.shape[1]}").ravel(), kind="stable")


def index_rows(indices: np.ndarray, n: int) -> np.ndarray:
    """(r, n) 0/1 rows of basis indices < 2^32, bit position 0 most significant."""
    octets = np.asarray(indices, dtype=">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1)[:, 32 - n :]


def brute_force_maxcut(g: Graph) -> tuple[int, set[str]]:
    """Exhaustive MaxCut: (max cut, all optimal assignments incl. complements).

    Reads the half space ``g.cut_table``; the winners' rows and their flipped
    rows become strings through ``row_strings``, so both orientations are
    reported.
    """
    best = int(g.cut_table.max())
    rows = index_rows(np.flatnonzero(g.cut_table == best), g.n)
    return best, set(row_strings(rows)) | set(row_strings(1 - rows))


def components_excluding(g: Graph, removed: frozenset[int] | set[int]) -> list[set[int]]:
    """Connected components of g with `removed` nodes (and incident edges) deleted,
    ascending by smallest member."""
    adj = g.adjacency
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in g.nodes:
        if start in removed or start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in removed or w in seen:
                    continue
                seen.add(w)
                comp.add(w)
                stack.append(w)
        comps.append(comp)
    return comps


def expectation_value(g: Graph, m: SolutionMap) -> float:
    """Count-weighted average cut size of a sampling distribution."""
    total = m.total()
    if not m.row_counts or total <= 0:
        raise ValueError("expectation value needs a non-empty map with positive total count")
    cuts = cut_values(g, m.rows).tolist()
    weighted = sum(cnt * cut for cnt, cut in zip(m.row_counts, cuts))
    return weighted / total


def best_sampled_cut(g: Graph, m: SolutionMap) -> int:
    if not m.row_counts:
        raise ValueError("empty solution map")
    return int(cut_values(g, m.rows).max())
