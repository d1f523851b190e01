import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import entropy

from dcqaoa import (
    Graph,
    SolutionMap,
    abridge,
    combine,
    kl_divergence,
    nlgp,
    rerank_by_cut,
)
from dcqaoa.graphs import cut_values, index_rows
from dcqaoa.reconstruction import KL_SMOOTHING, SCHEMES
from conftest import graphs, naive_cut_size, positions, string_combine, toy_graph, triangle


def toy_halves():
    split = nlgp(toy_graph(), 4)
    return split.subgraphs


class TestCombine:
    def test_shared_bit_mismatch_empty(self):
        g1, g2 = toy_halves()
        m1 = SolutionMap(g1.nodes, {"010": 30})
        m2 = SolutionMap(g2.nodes, {"110": 20})
        assert combine(g1, g2, m1, m2, "min").counts == {}

    def test_min_scheme(self):
        g1, g2 = toy_halves()
        m1 = SolutionMap(g1.nodes, {"011": 30})
        m2 = SolutionMap(g2.nodes, {"110": 20})
        assert combine(g1, g2, m1, m2, "min").counts == {"01110": 20}

    def test_mul_and_minxmul_schemes(self):
        g1, g2 = toy_halves()
        m1 = SolutionMap(g1.nodes, {"011": 30})
        m2 = SolutionMap(g2.nodes, {"110": 20})
        assert combine(g1, g2, m1, m2, "mul").counts == {"01110": 600}
        assert combine(g1, g2, m1, m2, "minXmul").counts == {"01110": 12000}

    def test_sum_scheme(self):
        g1, g2 = toy_halves()
        m1 = SolutionMap(g1.nodes, {"011": 30})
        m2 = SolutionMap(g2.nodes, {"110": 20})
        assert combine(g1, g2, m1, m2, "sum").counts == {"01110": 50}

    def test_bit_agreement_required_per_common_node(self):
        g1, g2 = toy_halves()
        # node 2 is position 2 in g1 and position 0 in g2
        m1 = SolutionMap(g1.nodes, {"011": 30})
        m2 = SolutionMap(g2.nodes, {"010": 20})
        assert combine(g1, g2, m1, m2, "min").counts == {}

    def test_no_common_node_joins_as_product(self, rng):
        # labels interleave: 0 and 2 come from a, 1, 3 and 4 from b
        a = Graph.from_edges([(0, 2)])
        b = Graph.from_edges([(1, 3)], nodes=[4])
        m1 = SolutionMap(a.nodes, {"01": 7, "10": 3, "00": 5})
        m2 = SolutionMap(b.nodes, {format(x, "03b"): int(rng.integers(1, 50)) for x in range(6)})
        for scheme, fn in SCHEMES.items():
            expected = {}
            for s1, c1 in m1.counts.items():
                for s2, c2 in m2.counts.items():
                    expected[s1[0] + s2[0] + s1[1] + s2[1] + s2[2]] = fn(c1, c2)
            out = combine(a, b, m1, m2, scheme)
            assert out.nodes == (0, 1, 2, 3, 4)
            assert len(out.counts) == len(m1.counts) * len(m2.counts)
            assert out.counts == expected

    def test_carried_cuts_add_without_wrapping(self):
        # each side's cut fits the leaf table's int16, their sum does not
        g1, g2 = Graph.from_edges([(0, 1)]), Graph.from_edges([(1, 2)])
        cut = np.array([30_000], dtype=np.int16)
        m1 = SolutionMap.from_rows(g1.nodes, np.array([[0, 1]], dtype=np.uint8), [2], cut)
        m2 = SolutionMap.from_rows(g2.nodes, np.array([[1, 0]], dtype=np.uint8), [3], cut)
        out = combine(g1, g2, m1, m2, "mul")
        assert out.counts == {"010": 6}
        assert out.cuts.dtype == np.int64
        assert out.cuts.tolist() == [60_000]

    def test_cuts_carried_only_when_both_sides_have_them(self):
        g1, g2 = toy_halves()
        m1 = SolutionMap(g1.nodes, {"011": 30, "100": 5})
        m2 = SolutionMap(g2.nodes, {"110": 20, "010": 4})
        assert combine(g1, g2, m1, m2, "min").cuts is None
        with_cuts = [
            SolutionMap.from_rows(m.nodes, m.rows, m.row_counts, cut_values(g, m.rows))
            for g, m in zip((g1, g2), (m1, m2))
        ]
        assert combine(g1, g2, with_cuts[0], m2, "min").cuts is None
        out = combine(g1, g2, *with_cuts, "min")
        assert out.cuts.tolist() == cut_values(toy_graph(), out.rows).tolist()

    def test_unknown_scheme_rejected(self):
        g1, g2 = toy_halves()
        with pytest.raises(ValueError):
            combine(g1, g2, SolutionMap(g1.nodes, {}), SolutionMap(g2.nodes, {}), "max")

    def test_soundness_and_completeness(self, rng):
        g1, g2 = toy_halves()
        m1 = SolutionMap(
            g1.nodes, {format(b, "03b"): int(rng.integers(1, 100)) for b in range(8)}
        )
        m2 = SolutionMap(
            g2.nodes, {format(b, "03b"): int(rng.integers(1, 100)) for b in range(8)}
        )
        out = combine(g1, g2, m1, m2, "mul")
        # soundness: restrictions appear in the child maps with matching counts
        for merged, count in out.counts.items():
            left = merged[0:3]
            right = merged[2:5]
            assert left in m1.counts and right in m2.counts
            assert count == m1.counts[left] * m2.counts[right]
        # completeness: every compatible pair contributes exactly one entry
        compatible = sum(
            1
            for s1 in m1.counts
            for s2 in m2.counts
            if s1[2] == s2[0]
        )
        assert len(out.counts) == compatible
        assert len(out.counts) <= len(m1.counts) * len(m2.counts)

    def test_cut_additivity_without_crossing_edges(self, rng):
        g = toy_graph()
        g1, g2 = toy_halves()
        for _ in range(30):
            s1 = "".join(rng.choice(["0", "1"], size=3))
            s2 = "".join(rng.choice(["0", "1"], size=3))
            if s1[2] != s2[0]:
                continue
            out = combine(
                g1,
                g2,
                SolutionMap(g1.nodes, {s1: 1}),
                SolutionMap(g2.nodes, {s2: 1}),
                "min",
            )
            (merged,) = out.counts
            assert naive_cut_size(g, merged) == naive_cut_size(g1, s1) + naive_cut_size(g2, s2)

    def test_symmetry_of_symmetric_schemes(self, rng):
        g1, g2 = toy_halves()
        m1 = SolutionMap(
            g1.nodes, {format(b, "03b"): int(rng.integers(1, 50)) for b in range(0, 8, 2)}
        )
        m2 = SolutionMap(
            g2.nodes, {format(b, "03b"): int(rng.integers(1, 50)) for b in range(1, 8, 2)}
        )
        for scheme in ("min", "mul", "sum", "minXmul"):
            ab = combine(g1, g2, m1, m2, scheme)
            ba = combine(g2, g1, m2, m1, scheme)
            assert ab.counts == ba.counts


@st.composite
def solution_maps(draw, nodes, max_entries=12):
    """Maps over `nodes` with small counts, so ties are common."""
    n = len(nodes)
    keys = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_entries, unique=True))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
    return SolutionMap(nodes, {format(b, f"0{n}b"): c for b, c in zip(keys, counts)})


@st.composite
def map_pairs(draw, shared):
    """(g1, g2, m1, m2) over two node sets that share nodes or are disjoint."""
    universe = draw(st.lists(st.integers(0, 60), min_size=3, max_size=12, unique=True))
    cut = draw(st.integers(1, len(universe) - 1))
    nodes1, nodes2 = universe[:cut], universe[cut:]
    if shared:
        nodes2 = nodes2 + draw(
            st.lists(st.sampled_from(nodes1), min_size=1, max_size=len(nodes1), unique=True)
        )
    g1 = Graph.from_edges([], nodes=nodes1)
    g2 = Graph.from_edges([], nodes=nodes2)
    return g1, g2, draw(solution_maps(g1.nodes)), draw(solution_maps(g2.nodes))


def assert_matches_string_combine(g1, g2, m1, m2, scheme):
    out = combine(g1, g2, m1, m2, scheme)
    nodes, merged = string_combine(g1, g2, m1, m2, scheme)
    assert out.nodes == nodes
    # distinct merged rows: a repeated row would collapse in the counts dict
    assert len(out.counts) == len(out.row_counts)
    assert out.counts == merged


class TestCombineOracle:
    @settings(max_examples=150, deadline=None)
    @given(map_pairs(shared=True), st.sampled_from(sorted(SCHEMES)))
    def test_shared_nodes_match_string_oracle(self, pair, scheme):
        assert_matches_string_combine(*pair, scheme)

    @settings(max_examples=80, deadline=None)
    @given(map_pairs(shared=False), st.sampled_from(sorted(SCHEMES)))
    def test_disjoint_nodes_match_string_oracle(self, pair, scheme):
        g1, g2, m1, m2 = pair
        assert_matches_string_combine(g1, g2, m1, m2, scheme)
        assert len(combine(g1, g2, m1, m2, scheme).row_counts) == len(m1.counts) * len(m2.counts)

    @settings(max_examples=60, deadline=None)
    @given(map_pairs(shared=True), st.sampled_from(sorted(SCHEMES)))
    def test_maps_disagreeing_on_every_pair_give_empty_map(self, pair, scheme):
        g1, g2, m1, m2 = pair
        # the first common node is 0 on every m1 row and 1 on every m2 row
        node = next(v for v in g1.nodes if v in g2.nodes)
        i1, i2 = positions(g1)[node], positions(g2)[node]
        m1 = SolutionMap(g1.nodes, {a: c for a, c in m1.counts.items() if a[i1] == "0"})
        m2 = SolutionMap(g2.nodes, {a: c for a, c in m2.counts.items() if a[i2] == "1"})
        out = combine(g1, g2, m1, m2, scheme)
        assert out.counts == {} and out.rows.shape == (0, len(out.nodes))
        assert_matches_string_combine(g1, g2, m1, m2, scheme)

    def test_minxmul_counts_beyond_int64_stay_exact(self):
        g1, g2 = toy_halves()
        big1, big2 = (1 << 22) + 3, (1 << 23) + 5
        m1 = SolutionMap(g1.nodes, {"011": big1, "010": big1 - 1})
        m2 = SolutionMap(g2.nodes, {"110": big2, "000": 7})
        out = combine(g1, g2, m1, m2, "minXmul")
        expected = big1 * big1 * big2
        assert expected > 1 << 63
        assert out.counts == {"01110": expected, "01000": 7 * 7 * (big1 - 1)}
        assert all(type(c) is int for c in out.row_counts)
        assert_matches_string_combine(g1, g2, m1, m2, "minXmul")


def string_rerank_by_cut(g, m):
    """The per-string rerank that rerank_by_cut replaced: its oracle."""
    counts_desc = sorted(m.counts.values(), reverse=True)
    strings_by_cut = sorted(m.counts, key=lambda a: (-naive_cut_size(g, a), a))
    return SolutionMap(m.nodes, dict(zip(strings_by_cut, counts_desc)))


class TestRerank:
    @settings(max_examples=80, deadline=None)
    @given(graphs(max_nodes=8), st.data())
    def test_matches_string_oracle(self, g, data):
        keys = data.draw(
            st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=40, unique=True)
        )
        counts = data.draw(st.lists(st.integers(0, 6), min_size=len(keys), max_size=len(keys)))
        m = SolutionMap(g.nodes, {format(b, f"0{g.n}b"): c for b, c in zip(keys, counts)})
        out = rerank_by_cut(g, m)
        assert list(out.counts.items()) == list(string_rerank_by_cut(g, m).counts.items())
        assert sorted(out.counts.values()) == sorted(m.counts.values())

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=8), st.data())
    def test_matches_string_oracle_on_row_backed_maps(self, g, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n * 30))
        rows = np.array(bits[: len(bits) // g.n * g.n], dtype=np.uint8).reshape(-1, g.n)
        rows = np.unique(rows, axis=0)[::-1]  # distinct rows, not in string order
        counts = data.draw(st.lists(st.integers(0, 5), min_size=len(rows), max_size=len(rows)))
        m = SolutionMap.from_rows(g.nodes, rows, counts)
        out = rerank_by_cut(g, m)
        assert list(out.counts.items()) == list(string_rerank_by_cut(g, m).counts.items())

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_nodes=8), st.data())
    def test_output_ignores_input_entry_order(self, g, data):
        # why sampling and combine need not sort: rerank_by_cut sets the order
        keys = data.draw(
            st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=40, unique=True)
        )
        counts = data.draw(st.lists(st.integers(0, 6), min_size=len(keys), max_size=len(keys)))
        m = SolutionMap.from_rows(g.nodes, index_rows(np.array(keys), g.n), counts)
        order = data.draw(st.permutations(range(len(keys))))
        out, shuffled = rerank_by_cut(g, m), rerank_by_cut(g, m.take(list(order)))
        assert shuffled.rows.tolist() == out.rows.tolist()
        assert shuffled.row_counts == out.row_counts

    def test_fixed_point_when_already_aligned(self):
        m = SolutionMap((0, 1, 2), {"011": 90, "000": 10})
        assert rerank_by_cut(triangle(), m).counts == m.counts

    def test_swaps_misranked_counts(self):
        m = SolutionMap((0, 1, 2), {"000": 90, "011": 10})
        assert rerank_by_cut(triangle(), m).counts == {"011": 90, "000": 10}

    def test_equal_counts_stay_in_cut_order(self):
        m = SolutionMap((0, 1, 2), {"000": 5, "011": 5})
        out = rerank_by_cut(triangle(), m)
        assert list(out.counts.items()) == [("011", 5), ("000", 5)]
        assert abridge(out, 1).counts == {"011": 5}

    def test_count_multiset_preserved(self, rng):
        g = toy_graph()
        m = SolutionMap(
            g.nodes, {format(b, "05b"): int(rng.integers(1, 60)) for b in range(0, 32, 3)}
        )
        out = rerank_by_cut(g, m)
        assert sorted(out.counts.values()) == sorted(m.counts.values())
        assert set(out.counts) == set(m.counts)
        assert out.total() == m.total()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rerank_by_cut(triangle(), SolutionMap((0, 1, 2), {}))

    def test_other_node_set_rejected(self):
        with pytest.raises(ValueError):
            rerank_by_cut(triangle(), SolutionMap((0, 1, 3), {"011": 1}))

    def test_sorts_by_carried_cuts_and_carries_them(self):
        # carried cuts are trusted: these ones invert the triangle's true cuts
        rows = np.array([[0, 1, 1], [0, 0, 0]], dtype=np.uint8)
        m = SolutionMap.from_rows((0, 1, 2), rows, [9, 1], [0, 2])
        out = rerank_by_cut(triangle(), m)
        assert list(out.counts.items()) == [("000", 9), ("011", 1)]
        assert out.cuts.tolist() == [2, 0]

    def test_scores_a_map_without_cuts_and_carries_them(self):
        m = SolutionMap((0, 1, 2), {"000": 9, "011": 1, "001": 4})
        assert m.cuts is None
        out = rerank_by_cut(triangle(), m)
        assert out.cuts.tolist() == cut_values(triangle(), out.rows).tolist() == [2, 2, 0]


def smoothed_vector(m, support):
    """Probabilities over `support`, smoothed by KL_SMOOTHING (unnormalized)."""
    total = m.total()
    return [(m.counts.get(a, 0) / total if total else 0.0) + KL_SMOOTHING for a in support]


class TestKlDivergence:
    def test_matches_scipy_entropy(self, rng):
        def random_map():
            strings = rng.choice(16, 6, replace=False)
            return SolutionMap(
                (0, 1, 2, 3), {format(b, "04b"): int(rng.integers(1, 200)) for b in strings}
            )

        cases = [
            (
                SolutionMap((0, 1), {"01": 900, "10": 100}),
                SolutionMap((0, 1), {"01": 500, "10": 500}),
            ),
            (SolutionMap((0, 1), {"01": 100}), SolutionMap((0, 1), {"10": 100})),
            (SolutionMap((0, 1), {}), SolutionMap((0, 1), {"00": 3, "11": 1})),
        ] + [(random_map(), random_map()) for _ in range(20)]
        for p, q in cases:
            support = sorted(set(p.counts) | set(q.counts))
            # scipy.stats.entropy renormalizes both vectors itself
            oracle = entropy(smoothed_vector(p, support), smoothed_vector(q, support))
            assert kl_divergence(p, q) == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_identical_maps_zero(self):
        m = SolutionMap((0, 1), {"01": 600, "10": 400})
        assert kl_divergence(m, m) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_supports_finite(self):
        p = SolutionMap((0, 1), {"01": 100})
        q = SolutionMap((0, 1), {"10": 100})
        value = kl_divergence(p, q)
        assert math.isfinite(value)
        assert value > 5.0

    def test_non_negative_up_to_smoothing(self, rng):
        for _ in range(20):
            p = SolutionMap(
                (0, 1, 2), {format(b, "03b"): int(rng.integers(0, 50)) + 1 for b in range(8)}
            )
            q = SolutionMap(
                (0, 1, 2), {format(b, "03b"): int(rng.integers(0, 50)) + 1 for b in range(8)}
            )
            assert kl_divergence(p, q) >= -1e-6

    def test_asymmetric(self):
        p = SolutionMap((0, 1), {"01": 900, "10": 100})
        q = SolutionMap((0, 1), {"01": 500, "10": 500})
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p), abs=1e-6)

    def test_mismatched_node_sets_rejected(self):
        p = SolutionMap((0, 1), {"01": 1})
        q = SolutionMap((0, 2), {"01": 1})
        with pytest.raises(ValueError):
            kl_divergence(p, q)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(SolutionMap((0,), {}), SolutionMap((0,), {}))
