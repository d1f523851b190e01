
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcqaoa import (
    EdgeListParseError,
    GenerationError,
    Graph,
    GraphValidationError,
    SizeLimitError,
    SolutionMap,
    best_sampled_cut,
    brute_force_maxcut,
    chain_maxcut,
    expectation_value,
    random_chain_graph,
    random_graph,
)
from dcqaoa.graphs import (
    _biconnected_blocks,
    complement,
    components_excluding,
    column_cuts,
    cut_values,
    index_rows,
    parse_edge_list,
    refined_form,
    row_strings,
    serialize_edge_list,
)
from dcqaoa.reports import approximation_ratio, reference_optimum
import dcqaoa.graphs as graphs_module
from conftest import (
    block_set,
    brute_force_form,
    chains,
    complete_graph,
    cut_value_table,
    cycle_graph,
    cycles_with_pendants,
    disjoint_unions,
    forests,
    gathered_cut_values,
    graphs,
    isomorphic,
    k2,
    mirrored,
    naive_cut_size,
    path_graph,
    relabel,
    relabelings,
    tarjan_biconnected_blocks,
    toy_graph,
    triangle,
)


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n0 2")
        assert g.nodes == (0, 1, 2)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_edge_list("0 1\n0 1")

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_edge_list("0 1\n1 0")

    def test_empty_input(self):
        g = parse_edge_list("")
        assert g.nodes == ()
        assert g.edges == ()

    def test_comments_and_isolated_nodes(self):
        g = parse_edge_list("# header\n0 1  # trailing\n7\n\n2 3")
        assert g.nodes == (0, 1, 2, 3, 7)
        assert g.edges == ((0, 1), (2, 3))

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("0 1\nnope 2")
        assert err.value.line_no == 2

    def test_three_tokens_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 1 2")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_edge_list("3 3")


class TestSerialize:
    def test_round_trip_is_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = random_graph(n, 0.4, seed=int(rng.integers(0, 10**6)))
            assert parse_edge_list(serialize_edge_list(g)) == g

    def test_isolated_nodes_survive(self):
        g = Graph.from_edges([(0, 2)], nodes=[5])
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_sorted_by_endpoints(self):
        g = Graph.from_edges([(3, 1), (0, 2)])
        assert serialize_edge_list(g) == "0 2\n1 3\n"


class TestRandomGraph:
    def test_p_one_is_complete(self):
        assert random_graph(5, 1.0, seed=42) == complete_graph(5)

    def test_single_node(self):
        g = random_graph(1, 0.5, seed=7)
        assert g.nodes == (0,)
        assert g.edges == ()

    def test_deterministic(self):
        assert random_graph(20, 0.2, seed=1) == random_graph(20, 0.2, seed=1)

    def test_connected(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(2, 30)), 0.25, seed=int(rng.integers(0, 10**6)))
            assert len(components_excluding(g, frozenset())) == 1

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(5, 0.0, seed=1)
        with pytest.raises(ValueError):
            random_graph(5, 1.5, seed=1)

    def test_retry_cap(self):
        # 40 nodes at the smallest positive probability: practically never connected
        with pytest.raises(GenerationError):
            random_graph(40, 1e-9, seed=0)


def cut_of(g: Graph, assignment: str) -> int:
    """cut_values on the single row of one assignment string."""
    return int(cut_values(g, np.array([[int(c) for c in assignment]], dtype=np.uint8))[0])


class TestCutSize:
    def test_monochromatic_triangle(self):
        assert cut_of(triangle(), "000") == 0

    def test_one_versus_two(self):
        assert cut_of(triangle(), "011") == 2

    def test_toy_graph_known_assignment(self):
        assert cut_of(toy_graph(), "01010") == 4

    def test_toy_graph_maximum_is_four(self):
        # independent enumeration over all 32 assignments
        g = toy_graph()
        best = max(cut_of(g, format(b, "05b")) for b in range(32))
        assert best == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cut_of(triangle(), "0011")

    def test_complement_invariance(self, rng):
        g = random_graph(8, 0.4, seed=5)
        for _ in range(30):
            a = "".join(rng.choice(["0", "1"], size=8))
            assert cut_of(g, a) == cut_of(g, complement(a))


class TestCutValues:
    @settings(max_examples=80, deadline=None)
    @given(
        graphs(max_nodes=8),
        st.lists(st.integers(0, 255), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    @example(Graph.from_edges(nodes=[7]), [0, 1], 1)
    @example(Graph.from_edges(nodes=[3, 5, 9]), [0, 5, 7], 2)
    def test_matches_string_oracle(self, g, draws, block):
        indices = [b % (1 << g.n) for b in draws]
        keys = [format(b, f"0{g.n}b") for b in indices]
        expected = [naive_cut_size(g, a) for a in keys]
        bits = np.array([[int(c) for c in a] for a in keys], dtype=np.uint8).reshape(-1, g.n)
        assert cut_values(g, bits).tolist() == expected
        assert cut_values(g, index_rows(np.array(indices), g.n)).tolist() == expected

        every = [format(b, f"0{g.n}b") for b in range(1 << g.n)]
        table = [naive_cut_size(g, a) for a in every]
        optimum = (max(table), {a for a, cut in zip(every, table) if cut == max(table)})
        assert mirrored(g.cut_table).tolist() == table
        assert brute_force_maxcut(g) == optimum

        # a block of `block` row x edge entries splits these edges across many
        # chunks; a fresh graph builds its cached table again under that block
        with mock.patch("dcqaoa.graphs._CUT_BLOCK_ELEMENTS", block):
            fresh = Graph(nodes=g.nodes, edges=g.edges)
            assert cut_values(g, bits).tolist() == expected
            assert mirrored(fresh.cut_table).tolist() == table
            assert brute_force_maxcut(fresh) == optimum

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_nodes=12), st.integers(0, 300), st.integers(0, 2**32))
    @example(Graph.from_edges(nodes=[]), 9, 0)
    @example(complete_graph(12), 300, 1)
    def test_column_cuts_match_gather(self, g, r, seed):
        rows = np.random.default_rng(seed).integers(0, 2, size=(r, g.n), dtype=np.uint8)
        columns = np.packbits(rows, axis=0, bitorder="little").T
        expected = gathered_cut_values(g, rows).tolist()
        assert cut_values(g, rows).tolist() == expected
        assert column_cuts(g, columns, r).tolist() == expected
        # small constants split the edges into many chunks of at most 3 edges
        with mock.patch.multiple(graphs_module, _CUT_BLOCK_ELEMENTS=7, _CUT_LANE_EDGES=3):
            assert cut_values(g, rows).tolist() == expected
            assert column_cuts(g, columns, r).tolist() == expected

    @pytest.mark.parametrize("r", [1, 9, 16])
    def test_more_edges_than_one_lane(self, r):
        # K363 has 65,703 edges, so its edges fill one uint16 lane and spill
        g = complete_graph(363)
        rows = np.random.default_rng(r).integers(0, 2, size=(r, g.n), dtype=np.uint8)
        expected = gathered_cut_values(g, rows)
        columns = np.packbits(rows, axis=0, bitorder="little").T
        assert np.array_equal(cut_values(g, rows), expected)
        assert np.array_equal(column_cuts(g, columns, r), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cut_values(triangle(), np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            cut_values(triangle(), np.zeros(3, dtype=np.uint8))

    def test_empty_rows(self):
        assert cut_values(triangle(), np.zeros((0, 3), dtype=np.uint8)).shape == (0,)


class TestCutTable:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_nodes=12))
    def test_mirrored_matches_full_space_oracle(self, g):
        assert np.array_equal(mirrored(g.cut_table), cut_value_table(g))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_paths_and_complete_graphs(self, n):
        for edges in (path_graph(n).edges, complete_graph(n).edges):
            g = Graph.from_edges(edges, nodes=range(n))
            assert np.array_equal(mirrored(g.cut_table), cut_value_table(g))

    def test_read_only_and_built_once(self):
        g = toy_graph()
        table = g.cut_table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
        assert g.cut_table is table

    def test_size_limits(self):
        with pytest.raises(ValueError, match="empty graph"):
            Graph.from_edges().cut_table
        for build in (lambda g: g.cut_table, brute_force_maxcut):
            with pytest.raises(SizeLimitError, match="exhaustive limit 24"):
                build(path_graph(25))


class TestBruteForce:
    def test_triangle(self):
        best, winners = brute_force_maxcut(triangle())
        assert best == 2
        assert winners == {"001", "010", "011", "100", "101", "110"}

    def test_k2(self):
        assert brute_force_maxcut(k2()) == (1, {"01", "10"})

    def test_toy_graph_six_optima(self):
        best, winners = brute_force_maxcut(toy_graph())
        assert best == 4
        assert len(winners) == 6
        assert winners == {complement(w) for w in winners}

    def test_limit_refusal(self):
        with pytest.raises(SizeLimitError):
            brute_force_maxcut(path_graph(30))

    def test_at_least_half_the_edges(self, rng):
        for _ in range(15):
            g = random_graph(int(rng.integers(2, 12)), 0.5, seed=int(rng.integers(0, 10**6)))
            best, _ = brute_force_maxcut(g)
            assert best >= (g.m + 1) // 2

    def test_matches_naive_enumeration(self, rng):
        single = Graph.from_edges(nodes=[0])
        for g in [single] + [
            random_graph(int(rng.integers(2, 9)), 0.5, seed=int(rng.integers(0, 10**6)))
            for _ in range(10)
        ]:
            assignments = [format(b, f"0{g.n}b") for b in range(1 << g.n)]
            naive = max(naive_cut_size(g, a) for a in assignments)
            winners = {a for a in assignments if naive_cut_size(g, a) == naive}
            assert brute_force_maxcut(g) == (naive, winners)


class TestComponents:
    def test_triangle_single(self):
        assert components_excluding(triangle(), frozenset()) == [{0, 1, 2}]

    def test_two_disjoint_edges(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert components_excluding(g, frozenset()) == [{0, 1}, {2, 3}]

    def test_empty_graph(self):
        assert components_excluding(Graph.from_edges([]), frozenset()) == []

    def test_ascending_by_smallest_member(self):
        g = Graph.from_edges([(5, 6), (1, 2)], nodes=[0])
        assert components_excluding(g, frozenset()) == [{0}, {1, 2}, {5, 6}]


class TestExpectationValue:
    def test_single_entry(self):
        m = SolutionMap((0, 1, 2), {"011": 10})
        assert expectation_value(triangle(), m) == 2.0

    def test_even_mix(self):
        m = SolutionMap((0, 1, 2), {"000": 5, "011": 5})
        assert expectation_value(triangle(), m) == 1.0

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            expectation_value(triangle(), SolutionMap((0, 1, 2), {}))

    def test_invariant_under_count_scaling(self):
        m1 = SolutionMap((0, 1, 2), {"000": 3, "011": 7, "101": 2})
        m2 = SolutionMap((0, 1, 2), {a: 13 * c for a, c in m1.counts.items()})
        ev1 = expectation_value(triangle(), m1)
        ev2 = expectation_value(triangle(), m2)
        assert ev1 == pytest.approx(ev2, abs=1e-12)


class TestApproximationRatio:
    def test_expectation_mode(self):
        m = SolutionMap((0, 1, 2), {"011": 1})
        assert approximation_ratio(expectation_value(triangle(), m), 2) == 1.0

    def test_best_sampled_mode_zero(self):
        m = SolutionMap((0, 1, 2), {"000": 1})
        assert approximation_ratio(best_sampled_cut(triangle(), m), 2) == 0.0

    def test_best_sampled_at_least_expectation(self, rng):
        g = random_graph(7, 0.5, seed=3)
        counts = {}
        for _ in range(10):
            a = "".join(rng.choice(["0", "1"], size=7))
            counts[a] = int(rng.integers(1, 50))
        m = SolutionMap(g.nodes, counts)
        optimum, _ = brute_force_maxcut(g)
        assert approximation_ratio(best_sampled_cut(g, m), optimum) >= approximation_ratio(
            expectation_value(g, m), optimum
        )

    def test_supplied_reference(self):
        m = SolutionMap((0, 1, 2), {"011": 1})
        assert approximation_ratio(best_sampled_cut(triangle(), m), 4) == 0.5


def two_k24_at_one_node() -> Graph:
    """Two complete 24-node graphs sharing node 23: 47 nodes in two blocks."""
    return Graph.from_edges(
        complete_graph(24).edges + tuple((u + 23, v + 23) for u, v in complete_graph(24).edges)
    )


def chain_of(blocks) -> Graph:
    """The blocks glued in a chain, each one's node 0 on the last node of the one before."""
    edges, offset = [], 0
    for block in blocks:
        edges += [(u + offset, v + offset) for u, v in block.edges]
        offset += block.n - 1
    return Graph.from_edges(edges)


class TestReferenceOptimum:
    def test_small_blocks_beyond_24_nodes_give_the_exact_optimum(self):
        # four 8-node blocks: 29 nodes, 4 * 2^7 block assignments to enumerate
        blocks = [random_graph(8, 0.5, seed) for seed in range(30, 34)]
        g = chain_of(blocks)
        assert g.n == 29
        optimum = sum(brute_force_maxcut(b)[0] for b in blocks)
        assert optimum == 44
        # the local search alone reaches only 42 here
        assert reference_optimum(g, [40], seed=0) == (optimum, "brute_force")

    @pytest.mark.parametrize(
        "g, optimum",
        [(cycle_graph(25), 24), (two_k24_at_one_node(), 288)],
        ids=["C25", "two K24 at one node"],
    )
    def test_beyond_the_budget_falls_back_to_best_of_suite(self, g, optimum):
        with mock.patch("dcqaoa.graphs.brute_force_maxcut", side_effect=AssertionError):
            with pytest.raises(SizeLimitError):
                chain_maxcut(g)
            assert reference_optimum(g, [1], seed=0) == (optimum, "best_of_suite")
            assert reference_optimum(g, [optimum + 1], seed=0) == (optimum + 1, "best_of_suite")


class TestSolutionMap:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            SolutionMap((0, 1), {"010": 1})

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SolutionMap((0, 1), {"01": -2})

    @pytest.mark.parametrize(
        "counts",
        [
            {"01": 1, "1": 2},
            {"00": 1, "011": 1},
            {"02": 1},
            {"0a": 1},
            {"1\u00e9": 1},
            {"10": 1, "11": -1},
            {"01": 1.0},
            {"01": "3"},
            {"01": np.int64(3)},
        ],
    )
    def test_dict_constructor_rejects(self, counts):
        with pytest.raises(ValueError):
            SolutionMap((0, 1), counts)

    @pytest.mark.parametrize(
        "counts", [{"010": 1}, {"0x": 1}, {"0\u00e9": 1}, {"01": -1}, {"01": "abc"}]
    )
    def test_from_dict_rejects(self, counts):
        # a to_dict payload read back through the dict constructor
        payload = {"nodes": [0, 1], "counts": counts}
        with pytest.raises(ValueError):
            SolutionMap(tuple(payload["nodes"]), payload["counts"])

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            SolutionMap((1, 0), {"01": 1})

    @pytest.mark.parametrize(
        "rows, counts",
        [
            (np.zeros((2, 3), dtype=np.uint8), [1, 1]),  # width 3 over 2 nodes
            (np.zeros((2, 2), dtype=np.uint8), [1]),  # one count for two rows
            (np.zeros(2, dtype=np.uint8), [1]),  # not two-dimensional
            (np.zeros((1, 2), dtype=np.int64), [1]),
            (np.zeros((1, 2), dtype=bool), [1]),
            (np.array([[0, 2]], dtype=np.uint8), [1]),
            ([[0, 1]], [1]),
        ],
    )
    def test_row_constructor_rejects(self, rows, counts):
        with pytest.raises(ValueError):
            SolutionMap.from_rows((0, 1), rows, counts)

    def test_rows_and_strings_agree(self):
        m = SolutionMap((0, 3, 7), {"011": 4, "100": 2, "000": 0})
        assert m.rows.tolist() == [[0, 1, 1], [1, 0, 0], [0, 0, 0]]
        assert m.rows.dtype == np.uint8 and m.rows.flags.c_contiguous
        assert not m.rows.flags.writeable
        assert m.row_counts == [4, 2, 0]
        rebuilt = SolutionMap.from_rows(m.nodes, np.asfortranarray(m.rows), m.row_counts)
        assert list(rebuilt.counts.items()) == list(m.counts.items())
        assert rebuilt == m and rebuilt.rows.flags.c_contiguous

    def test_zero_width_map(self):
        m = SolutionMap((), {"": 5})
        assert m.rows.shape == (1, 0)
        assert m.counts == {"": 5}
        assert row_strings(np.zeros((2, 0), dtype=np.uint8)) == ["", ""]

    def test_equality_ignores_entry_order(self):
        a = SolutionMap((0, 1), {"01": 5, "10": 5})
        assert a == SolutionMap((0, 1), {"10": 5, "01": 5})
        assert a != SolutionMap((0, 1), {"01": 5, "10": 4})
        assert a != SolutionMap((0, 2), {"01": 5, "10": 5})

    def test_round_trip(self):
        m = SolutionMap((0, 2, 5), {"010": 4, "111": 1})
        payload = m.to_dict()
        assert SolutionMap(tuple(payload["nodes"]), payload["counts"]) == m


class TestChainGraphs:
    def test_exact_optimum_matches_brute_force(self):
        for seed in range(20):
            g = random_chain_graph(14, seed)
            assert chain_maxcut(g) == brute_force_maxcut(g)[0]

    @given(graphs(max_nodes=10))
    @example(Graph.from_edges(nodes=[3, 7]))
    @example(Graph.from_edges([(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)], nodes=[9]))
    def test_exact_optimum_of_any_graph_matches_brute_force(self, g):
        assert chain_maxcut(g) == brute_force_maxcut(g)[0]

    def test_connected_and_sized(self):
        for seed in range(10):
            g = random_chain_graph(40, seed)
            assert g.n == 40
            assert len(components_excluding(g, frozenset())) == 1

    def test_deterministic(self):
        assert random_chain_graph(30, 4) == random_chain_graph(30, 4)


class TestBiconnectedBlocks:
    """Blocks read off the lowpoint forest equal the edge-stack oracle's."""

    @given(
        st.one_of(
            graphs(max_nodes=10), forests(), chains(), cycles_with_pendants(), disjoint_unions()
        )
    )
    @example(Graph.from_edges(nodes=[3, 7]))
    @example(complete_graph(5))
    def test_match_edge_stack_oracle(self, g):
        assert block_set(_biconnected_blocks(g)) == block_set(tarjan_biconnected_blocks(g))

    def test_forest_fields(self):
        # the path 0-1-2 plus the isolated node 3, searched from 0 then 3
        forest = Graph.from_edges([(0, 1), (1, 2)], nodes=[3]).lowpoints
        assert [a.tolist() for a in forest] == [[0, 1, 2, 3], [0, 1, 2, 3], [3, 2, 1, 1], [-1, 0, 1, -1]]
        # a triangle: every node reaches the root through the back edge
        forest = triangle().lowpoints
        assert forest.low.tolist() == [0, 0, 0]


@st.composite
def same_size_pairs(draw):
    """Two graphs with equal node and edge counts, often non-isomorphic."""
    g = draw(graphs())
    h = draw(graphs(nodes=list(range(g.n)), edge_count=g.m))
    return g, h


def form_graph(form) -> Graph:
    n, edges = form
    return Graph.from_edges(edges, nodes=range(n))


class TestRefinedForm:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_form_is_a_relabeling(self, data):
        g = data.draw(graphs())
        h = data.draw(relabelings(g))
        for graph in (g, h):
            assert brute_force_form(form_graph(refined_form(graph))) == brute_force_form(graph)
        assert refined_form(g) != refined_form(h) or brute_force_form(g) == brute_force_form(h)

    @settings(max_examples=60, deadline=None)
    @given(same_size_pairs())
    @example((cycle_graph(6), Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
    def test_equal_forms_imply_isomorphic(self, pair):
        g, h = pair
        assert refined_form(g) != refined_form(h) or brute_force_form(g) == brute_force_form(h)

    def test_isolated_nodes_count(self):
        assert refined_form(k2()) != refined_form(Graph.from_edges([(0, 1)], nodes=[2]))

    def test_separated_nodes_give_one_form_per_class(self):
        # the spider with legs of 1, 2 and 3 edges has no automorphism, and
        # refinement gives each of its nodes a class of its own
        spider = Graph.from_edges([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        forms = {refined_form(relabel(spider, dict(enumerate(p)))) for p in permutations(range(7))}
        assert len(forms) == 1

    def test_tied_nodes_keep_label_order(self):
        # isomorphic paths whose tied middle nodes come in different label order
        path = path_graph(4)
        swapped = Graph.from_edges([(0, 2), (2, 1), (1, 3)])
        assert isomorphic(path, swapped)
        assert refined_form(path) != refined_form(swapped)


def test_best_sampled_cut_empty_map():
    with pytest.raises(ValueError):
        best_sampled_cut(triangle(), SolutionMap((0, 1, 2), {}))


def test_graph_factory_validation():
    with pytest.raises(GraphValidationError):
        Graph.from_edges([(0, 0)])
    with pytest.raises(GraphValidationError):
        Graph.from_edges([(0, 1), (1, 0)])
    with pytest.raises(GraphValidationError):
        Graph.from_edges([(-1, 2)])
    with pytest.raises(GraphValidationError):
        Graph.from_edges(nodes=[-1])


def test_labels_beyond_int64_rejected():
    # numpy would compare a uint64 label with int64 ones as float64, where
    # labels above 2^53 collapse and bit positions come out wrong
    big = 1 << 60
    with pytest.raises(GraphValidationError):
        Graph.from_edges([(big, big + 1)], nodes=[1 << 63])
    with pytest.raises(GraphValidationError):
        parse_edge_list(f"{big} {big + 1}\n{1 << 63}")
    g = Graph.from_edges([(big, big + 1)], nodes=[(1 << 63) - 1])
    assert g.edge_positions.tolist() == [[0, 1]]
