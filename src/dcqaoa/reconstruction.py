"""Combining subgraph sampling distributions into a parent distribution.

Two subgraph assignments may merge only when they agree on every shared
node's bit. A pluggable scheme maps the pair of counts to the combined
count; re-ranking and a smoothed KL divergence support quality evaluation
of the reconstructed distribution.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, SolutionMap, cut_values, lexicographic_order

KL_SMOOTHING = 1e-9

SCHEMES = {
    "min": lambda c1, c2: min(c1, c2),
    "mul": lambda c1, c2: c1 * c2,
    "sum": lambda c1, c2: c1 + c2,
    "minXmul": lambda c1, c2: min(c1, c2) * c1 * c2,
}


def scheme_function(kind: str):
    try:
        return SCHEMES[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheme {kind!r}; expected one of {sorted(SCHEMES)}"
        ) from None


def combine(
    g1: Graph, g2: Graph, m1: SolutionMap, m2: SolutionMap, scheme: str
) -> SolutionMap:
    """Merge every compatible assignment pair of the two subgraph maps.

    A pair is compatible when both rows assign the same bit to every common
    node. The merged row over the union node set takes each node's bit from
    the first map when the node belongs to g1, otherwise from the second;
    its count is scheme(count1, count2). Node-disjoint maps have no common
    node to disagree on, so every pair merges and the result is their
    product. An empty result (no compatible pair) is returned as an empty
    map for the caller to handle.

    No two compatible pairs give the same merged row: two different m1 rows
    differ on some g1 node, and two m2 rows that match the same m1 row agree
    on the common nodes, so they differ on some node only g2 has. Entry
    order is unspecified.

    When both maps carry cuts, the merged row's cut is cut1 + cut2. That is
    exact for the split ``nlgp`` makes: its two edge sets are disjoint and
    cover the parent's edges (separator-internal edges go to g1 only), and
    the merged row agrees with each side's row on that side's nodes, so
    every parent edge is scored once, by the side that holds it. The sum is
    taken in ``int64``, so cuts beyond the leaf table's ``int16`` do not wrap.
    """
    fn = scheme_function(scheme)
    if m1.nodes != g1.nodes or m2.nodes != g2.nodes:
        raise ValueError("solution maps must be keyed on their subgraph node sets")
    nodes1 = np.array(g1.nodes, dtype=np.int64)
    nodes2 = np.array(g2.nodes, dtype=np.int64)
    _, at1, at2 = np.intersect1d(nodes1, nodes2, assume_unique=True, return_indices=True)
    union_nodes = np.union1d(nodes1, nodes2)

    # pairs (i1, i2) in m1 entry order, then m2 entry order
    sig1 = m1.rows[:, at1]
    sig2 = m2.rows[:, at2]
    i1, i2 = np.nonzero((sig1[:, None, :] == sig2[None, :, :]).all(axis=2))

    # matched pairs agree on the common columns, so either side may write them
    merged = np.empty((len(i1), len(union_nodes)), dtype=np.uint8)
    merged[:, np.searchsorted(union_nodes, nodes2)] = m2.rows[i2]
    merged[:, np.searchsorted(union_nodes, nodes1)] = m1.rows[i1]
    c1, c2 = m1.row_counts, m2.row_counts
    counts = [fn(c1[a], c2[b]) for a, b in zip(i1.tolist(), i2.tolist())]
    cuts = None if m1.cuts is None or m2.cuts is None else m1.cuts[i1] + m2.cuts[i2]
    return SolutionMap.from_rows(tuple(union_nodes.tolist()), merged, counts, cuts)


def rerank_by_cut(g: Graph, m: SolutionMap) -> SolutionMap:
    """Reassign the count multiset to assignments ordered by true cut size.

    Counteracts sampling noise: the largest counts land on the largest
    cuts. Support and count multiset are preserved; only the pairing
    changes. Ties on cut size break toward the lexicographically smaller
    assignment. Entries stay in that cut order, so a truncation that splits
    a tie of counts keeps the larger cuts.

    A map that carries cuts (sampled, combined, or reranked before) is
    sorted by them without scoring an edge; only a map built without cuts,
    such as one from a dict, is scored on g. The result carries its cuts.
    """
    if not m.row_counts:
        raise ValueError("cannot rerank an empty solution map")
    if m.nodes != g.nodes:
        raise ValueError("solution map and graph have different node sets")
    cuts = cut_values(g, m.rows) if m.cuts is None else m.cuts
    by_row = lexicographic_order(m.rows)
    by_cut = by_row[np.argsort(-cuts[by_row], kind="stable")]
    counts_desc = sorted(m.row_counts, reverse=True)
    return SolutionMap.from_rows(m.nodes, m.rows[by_cut], counts_desc, cuts[by_cut])


def kl_divergence(p: SolutionMap, q: SolutionMap) -> float:
    """Smoothed Kullback-Leibler divergence D(P || Q) over the union support.

    Both maps are normalized to probabilities over the union of their
    supports, smoothed additively and renormalized, so differing supports
    stay finite. P is the reconstructed distribution, Q the reference.
    """
    if p.nodes != q.nodes:
        raise ValueError("maps must be keyed on the same node set")
    if not p.counts and not q.counts:
        raise ValueError("both maps are empty")
    support = sorted(set(p.counts) | set(q.counts))
    p_total = p.total()
    q_total = q.total()
    size = len(support)

    def smoothed(m: SolutionMap, total: int) -> list[float]:
        raw = [m.counts.get(a, 0) / total if total else 0.0 for a in support]
        z = 1.0 + size * KL_SMOOTHING if total else size * KL_SMOOTHING
        return [(r + KL_SMOOTHING) / z for r in raw]

    pv = smoothed(p, p_total)
    qv = smoothed(q, q_total)
    return sum(pi * math.log(pi / qi) for pi, qi in zip(pv, qv))
