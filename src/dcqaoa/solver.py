"""Recursive divide-and-conquer MaxCut driver.

Graphs larger than the qubit budget are split at the first separator path
that disconnects them (the empty path when already disconnected); each
side is solved recursively and the two sampling distributions are merged
under the combination criterion (a plain product when the sides share no
node). Separator nodes with no edge on the second side are solved only on
the first side. At every level the map is re-ranked by true cut size,
truncated to the top-t entries, and rescaled to a fixed total count.

Leaves of at most ANGLE_CACHE_MAX_NODES nodes share optimized angles within
one solve: the first leaf of each isomorphism class (in the fixed recursion
order) runs the optimizer, and later isomorphic leaves reuse its angles,
which is exact because the QAOA expectation does not depend on node labels.
Every leaf still samples its own distribution from its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import qaoa
from .errors import ReconstructionError
from .graphs import Graph, SolutionMap, canonical_form
from .partition import nlgp, nrl
from .qaoa import DEFAULT_BUDGET, DEFAULT_RESTARTS, AnsatzParams
from .reconstruction import combine, rerank_by_cut, scheme_function
from .seeds import derive_seed


ANGLE_CACHE_MAX_NODES = 6

# Optimized angles of one solve, keyed by the leaf's canonical form.
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
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.budget < 1 or self.restarts < 1:
            raise ValueError("budget and restarts must be >= 1")
        scheme_function(self.scheme)


@dataclass
class PartitionNode:
    """One node of the recursive partition tree."""

    nodes: tuple[int, ...]
    separator: tuple[int, ...] = ()
    children: list["PartitionNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["PartitionNode"]:
        if self.is_leaf:
            return [self]
        out: list[PartitionNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def count(self) -> int:
        return 1 + sum(child.count() for child in self.children)

    def split_nrl(self) -> float | None:
        if self.is_leaf:
            return None
        duplicated = sum(len(c.nodes) for c in self.children)
        return duplicated / len(self.nodes)

    def to_dict(self) -> dict:
        payload: dict = {"nodes": list(self.nodes)}
        if not self.is_leaf:
            payload["separator"] = list(self.separator)
            payload["split_nrl"] = self.split_nrl()
            payload["children"] = [c.to_dict() for c in self.children]
        return payload


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
    """Floor-rescale counts so the total is s or slightly below; zeros dropped."""
    if s < 1:
        raise ValueError("s must be >= 1")
    total = m.total()
    if total <= 0:
        raise ValueError("cannot rescale a map with zero total count")
    scaled = [(s * c) // total for c in m.row_counts]
    kept = [i for i, c in enumerate(scaled) if c > 0]
    return m.take(kept, [scaled[i] for i in kept])


def dc_qaoa(g: Graph, cfg: DcConfig) -> SolutionMap:
    """Solve MaxCut by recursive partition, QAOA on the leaves, and merge."""
    solution, _ = dc_qaoa_traced(g, cfg)
    return solution


def dc_qaoa_traced(g: Graph, cfg: DcConfig) -> tuple[SolutionMap, PartitionNode]:
    """Like dc_qaoa but also returns the partition tree for reporting."""
    if g.n == 0:
        raise ValueError("graph has no nodes")
    return _solve(g, cfg, level=0, angles={})


def tree_nrl(g: Graph, tree: PartitionNode) -> float:
    """Whole-run node redundancy: leaf subproblem sizes over the input size."""
    leaf_graphs = [Graph(nodes=leaf.nodes, edges=()) for leaf in tree.leaves()]
    return nrl(g, leaf_graphs)


def _solve(
    g: Graph, cfg: DcConfig, level: int, angles: AngleCache
) -> tuple[SolutionMap, PartitionNode]:
    if g.n <= cfg.k:
        out = _solve_leaf(g, cfg, angles)
        node = PartitionNode(nodes=g.nodes)
    else:
        split = nlgp(g, cfg.k)
        g1, g2 = split.subgraphs
        # g1 holds the separator-internal edges and fixes every separator bit,
        # so g2 drops the separator nodes left without an edge on its side
        edgeless = [v for v in split.separator if not g2.adjacency[v]]
        if edgeless:
            g2 = Graph(nodes=tuple(v for v in g2.nodes if v not in edgeless), edges=g2.edges)
        m1, node1 = _solve(
            g1, replace(cfg, seed=derive_seed(cfg.seed, "child", g1.nodes)), level + 1, angles
        )
        m2, node2 = _solve(
            g2, replace(cfg, seed=derive_seed(cfg.seed, "child", g2.nodes)), level + 1, angles
        )
        out = combine(g1, g2, weight_map(m1), weight_map(m2), cfg.scheme)
        if not out.row_counts:
            raise ReconstructionError(level, g.nodes, stage="combine")
        node = PartitionNode(nodes=g.nodes, separator=split.separator, children=[node1, node2])

    out = rerank_by_cut(g, out)
    out = abridge(out, cfg.t)
    out = rescale(out, cfg.s)
    if not out.row_counts:
        raise ReconstructionError(level, g.nodes, stage="rescale")
    return out, node


def _solve_leaf(g: Graph, cfg: DcConfig, angles: AngleCache) -> SolutionMap:
    """QAOA on one leaf: optimize (or reuse an isomorphic leaf's angles), then sample."""
    seed = derive_seed(cfg.seed, "leaf", g.nodes)
    key = canonical_form(g) if g.n <= ANGLE_CACHE_MAX_NODES else None
    params = angles.get(key)
    if params is None:
        params, _ = qaoa.optimize_params(
            g, cfg.p, seed=derive_seed(seed, "optimize"), budget=cfg.budget, restarts=cfg.restarts
        )
        if key is not None:
            angles[key] = params
    return qaoa.sample_solution_map(g, params, cfg.s, seed=derive_seed(seed, "sample"))
