"""Combining subgraph sampling distributions into a parent distribution.

Two subgraph assignments may merge only when they agree on every shared
node's bit. A pluggable scheme maps the pair of counts to the combined
count; re-ranking and a smoothed KL divergence support quality evaluation
of the reconstructed distribution.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .graphs import Graph, SolutionMap, cut_values, key_rows

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

    A pair is compatible when both strings assign the same bit to every
    common node. The merged assignment over the union node set takes each
    node's bit from the first map when the node belongs to g1, otherwise
    from the second; its count is scheme(count1, count2). Node-disjoint maps
    have no common node to disagree on, so every pair merges and the result
    is their product. Output is sorted by count descending. An empty result
    (no compatible pair) is returned as an empty map for the caller to
    handle.
    """
    fn = scheme_function(scheme)
    if m1.nodes != g1.nodes or m2.nodes != g2.nodes:
        raise ValueError("solution maps must be keyed on their subgraph node sets")
    common = sorted(set(g1.nodes) & set(g2.nodes))
    pos1 = g1.index
    pos2 = g2.index
    union_nodes = tuple(sorted(set(g1.nodes) | set(g2.nodes)))
    in_g1 = set(g1.nodes)
    picks = [
        (0, pos1[node]) if node in in_g1 else (1, pos2[node]) for node in union_nodes
    ]

    common1 = [pos1[v] for v in common]
    common2 = [pos2[v] for v in common]
    by_signature: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for s2, c2 in m2.counts.items():
        by_signature["".join(s2[i] for i in common2)].append((s2, c2))

    merged: dict[str, int] = {}
    for s1, c1 in m1.counts.items():
        signature = "".join(s1[i] for i in common1)
        for s2, c2 in by_signature.get(signature, ()):
            pair = (s1, s2)
            key = "".join(pair[side][i] for side, i in picks)
            merged[key] = fn(c1, c2)
    return SolutionMap(union_nodes, merged).sorted_by_count()


def rerank_by_cut(g: Graph, m: SolutionMap) -> SolutionMap:
    """Reassign the count multiset to assignments ordered by true cut size.

    Counteracts sampling noise: the largest counts land on the largest
    cuts. Support and count multiset are preserved; only the pairing
    changes. Ties on cut size break toward the lexicographically smaller
    assignment.
    """
    if not m.counts:
        raise ValueError("cannot rerank an empty solution map")
    counts_desc = sorted(m.counts.values(), reverse=True)
    cuts = cut_values(g, key_rows(m.counts)).tolist()
    strings_by_cut = [a for _, a in sorted(zip([-c for c in cuts], m.counts))]
    paired = dict(zip(strings_by_cut, counts_desc))
    return SolutionMap(m.nodes, paired).sorted_by_count()


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
