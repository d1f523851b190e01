"""Combining subgraph sampling distributions into a parent distribution.

Two subgraph assignments merge when their bits on the shared nodes (their
separator signatures) lie at the smallest Hamming distance found over all
pairs: distance 0, bit agreement, wherever some pair agrees, so a merge
never comes up empty. A pluggable scheme maps the pair of counts to the
combined count; re-ranking and a smoothed KL divergence support quality
evaluation of the reconstructed distribution.
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
    """Merge the assignment pairs of the two subgraph maps whose signatures are nearest.

    A row's signature is its bits on the common nodes. The pairs merged are
    those at the smallest Hamming distance between signatures found over
    all pairs; that is distance 0, every pair that agrees on all common
    nodes, whenever one exists. The merged row over the union node set
    takes each node's bit from the first map when the node belongs to g1,
    otherwise from the second; its count is scheme(count1, count2).
    Node-disjoint maps have an empty signature, so every pair merges and
    the result is their product. Only an empty input map gives an empty
    result. Entry order is unspecified.

    At distance 0 no two pairs give the same merged row: two different m1
    rows differ on some g1 node, and two m2 rows that match the same m1 row
    agree on the common nodes, so they differ on some node only g2 has. At
    distance > 0 two m2 rows that differ only on common nodes do give one
    merged row; the first such pair, in pair order, is kept.

    When both maps carry cuts, the merged row carries cut1 + cut2 at
    distance 0. That is exact for the split ``nlgp`` makes: its two edge
    sets are disjoint and cover the parent's edges (separator-internal
    edges go to g1 only), and the merged row agrees with each side's row on
    that side's nodes, so every parent edge is scored once, by the side
    that holds it. At distance > 0 the merged row agrees only with m1's
    row, so its g2 edges are scored on it again. The sum is taken in
    ``int64``, so cuts beyond the leaf table's ``int16`` do not wrap.
    """
    fn = scheme_function(scheme)
    if m1.nodes != g1.nodes or m2.nodes != g2.nodes:
        raise ValueError("solution maps must be keyed on their subgraph node sets")
    nodes1 = np.array(g1.nodes, dtype=np.int64)
    nodes2 = np.array(g2.nodes, dtype=np.int64)
    _, at1, at2 = np.intersect1d(nodes1, nodes2, assume_unique=True, return_indices=True)
    # with return_index np.unique sorts; its hash path would load numpy.ma
    union_nodes = np.unique(np.concatenate((nodes1, nodes2)), return_index=True)[0]
    columns2 = np.searchsorted(union_nodes, nodes2)

    # pairs (i1, i2) in m1 entry order, then m2 entry order
    distance = (m1.rows[:, None, at1] != m2.rows[None, :, at2]).sum(axis=2)
    nearest = int(distance.min(initial=len(at1)))
    i1, i2 = np.nonzero(distance == nearest)

    # g1's columns go last, so the common bits come from m1
    merged = np.empty((len(i1), len(union_nodes)), dtype=np.uint8)
    merged[:, columns2] = m2.rows[i2]
    merged[:, np.searchsorted(union_nodes, nodes1)] = m1.rows[i1]
    if nearest:
        _, first = np.unique(merged, axis=0, return_index=True)
        keep = np.sort(first)
        i1, i2, merged = i1[keep], i2[keep], merged[keep]
    c1, c2 = m1.row_counts, m2.row_counts
    counts = [fn(c1[a], c2[b]) for a, b in zip(i1.tolist(), i2.tolist())]
    cuts = None
    if m1.cuts is not None and m2.cuts is not None:
        cuts2 = cut_values(g2, merged[:, columns2]) if nearest else m2.cuts[i2]
        cuts = m1.cuts[i1] + cuts2
    return SolutionMap._from_known_rows(tuple(union_nodes.tolist()), merged, counts, cuts)


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
    return SolutionMap._from_known_rows(m.nodes, m.rows[by_cut], counts_desc, cuts[by_cut])


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
