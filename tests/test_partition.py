import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dcqaoa.graphs as graphs_module
import dcqaoa.partition as partition_module
from dcqaoa import (
    ConnectivityExceededError,
    Graph,
    nlgp,
    nrl,
    random_chain_graph,
    random_graph,
)
from dcqaoa.graphs import _biconnected_blocks, components_excluding
from conftest import (
    block_set,
    chains,
    check_separation_invariants,
    complete_graph,
    cycle_graph,
    cycles_with_pendants,
    disjoint_unions,
    enumerated_nlgp,
    forests,
    graphs,
    path_graph,
    tarjan_biconnected_blocks,
    toy_graph,
    triangle,
)


def disconnects(g, nodes_removed):
    return len(components_excluding(g, set(nodes_removed))) >= 2


class TestNlgp:
    def test_toy_graph_splits_at_shared_node(self):
        split = nlgp(toy_graph(), 4)
        assert split.separator == (2,)
        g1, g2 = split.subgraphs
        assert g1.nodes == (0, 1, 2)
        assert g1.edges == ((0, 1), (0, 2), (1, 2))
        assert g2.nodes == (2, 3, 4)
        assert g2.edges == ((2, 3), (3, 4))

    def test_path_graph_cut_vertex(self):
        split = nlgp(path_graph(3), 2)
        assert split.separator == (1,)
        assert split.subgraphs[0].nodes == (0, 1)
        assert split.subgraphs[1].nodes == (1, 2)

    def test_k5_connectivity_exceeded(self):
        with pytest.raises(ConnectivityExceededError):
            nlgp(complete_graph(5), 4)

    def test_k5_has_no_small_separator(self):
        # oracle: removing any subset of fewer than 4 nodes never disconnects K5
        g = complete_graph(5)
        for size in (1, 2, 3):
            for subset in itertools.combinations(g.nodes, size):
                assert not disconnects(g, subset)

    def test_disconnected_input_splits_between_components(self):
        # size-0 separator: the first half of the components (ascending by
        # smallest member) against the second half
        two = Graph.from_edges([(0, 1), (2, 3)])
        check_separation_invariants(two, nlgp(two, 2))
        cases = [
            (two, ({0, 1}, {2, 3})),
            (Graph.from_edges([(0, 3), (1, 4), (2, 5)]), ({0, 3}, {1, 2, 4, 5})),
            (Graph.from_edges([(1, 2), (2, 3)], nodes=[0, 7]), ({0}, {1, 2, 3, 7})),
            (Graph.from_edges([(0, 4), (1, 5)], nodes=[2, 3]), ({0, 1, 4, 5}, {2, 3})),
        ]
        for g, halves in cases:
            split = nlgp(g, 2)
            g1, g2 = split.subgraphs
            assert split.separator == ()
            assert (set(g1.nodes), set(g2.nodes)) == halves
            assert not set(g1.edges) & set(g2.edges)
            assert set(g1.edges) | set(g2.edges) == set(g.edges)

    def test_star_splits_leaves_into_halves(self):
        # the centre leaves one component per leaf: the first half of them
        # (ascending by smallest node) against the rest
        for leaves, k in ((3, 2), (9, 8)):
            g = Graph.from_edges([(0, v) for v in range(1, leaves + 1)])
            split = nlgp(g, k)
            check_separation_invariants(g, split)
            g1, g2 = split.subgraphs
            assert split.separator == (0,)
            assert g1.nodes == tuple(range(leaves // 2 + 1))
            assert g2.nodes == (0, *range(leaves // 2 + 1, leaves + 1))

    def test_k23_splits_at_its_two_hubs(self):
        # no single node disconnects K2,3; the hubs 0 and 4 are the first
        # pair that does, and each of them is in both subgraphs
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        split = nlgp(g, 4)
        check_separation_invariants(g, split)
        g1, g2 = split.subgraphs
        assert split.separator == (0, 4)
        assert g1.nodes == (0, 1, 4)
        assert g1.edges == ((0, 1), (1, 4))
        assert g2.nodes == (0, 2, 3, 4)
        assert g2.edges == ((0, 2), (0, 3), (2, 4), (3, 4))

    @pytest.mark.parametrize("n", [5, 9, 24])
    def test_cycle_longer_than_k_splits_at_two_nodes(self, n):
        # no path of fewer than k nodes disconnects a long cycle, but the
        # pair (0, 2) cuts off node 1
        g = cycle_graph(n)
        split = nlgp(g, 4)
        check_separation_invariants(g, split)
        assert split.separator == (0, 2)
        assert split.subgraphs[0].nodes == (0, 1, 2)

    @given(graphs(max_nodes=9), st.integers(1, 8))
    def test_separator_is_the_first_smallest_disconnecting_set(self, g, k):
        assume(g.n > k)
        # every disconnecting set of fewer than k nodes, in combinations order
        candidates = [
            c
            for size in range(k)
            for c in itertools.combinations(g.nodes, size)
            if disconnects(g, c)
        ]
        try:
            split = nlgp(g, k)
        except ConnectivityExceededError:
            assert not candidates
            return
        check_separation_invariants(g, split)
        assert split.separator == candidates[0]

    @given(forests(), st.integers(2, 8))
    def test_every_forest_splits(self, g, k):
        assume(g.n > k)
        split = nlgp(g, k)
        check_separation_invariants(g, split)
        # a disconnected forest needs no separator node, a tree one cut vertex
        assert len(split.separator) == (0 if len(components_excluding(g, frozenset())) > 1 else 1)

    @given(graphs(max_nodes=9), st.integers(1, 8))
    def test_both_sides_shrink(self, g, k):
        assume(g.n > k)
        try:
            split = nlgp(g, k)
        except ConnectivityExceededError:
            return
        assert all(gi.n < g.n for gi in split.subgraphs)

    def test_small_graph_rejected(self):
        with pytest.raises(ValueError):
            nlgp(triangle(), 3)

    def test_deterministic(self):
        g = random_graph(20, 0.15, seed=8)
        assert nlgp(g, 6).separator == nlgp(g, 6).separator


def fresh(g):
    """The same graph with nothing cached."""
    return Graph(nodes=g.nodes, edges=g.edges)


def split_like_oracle(g, k):
    """Split g and every piece above k nodes again, checking each split
    against the enumeration oracle on a fresh copy, each piece's cached
    edge positions and (through its blocks) its inherited forest.
    Returns the number of splits."""
    splits, todo = 0, [g]
    while todo:
        piece = todo.pop()
        try:
            want = enumerated_nlgp(fresh(piece), k)
        except ConnectivityExceededError:
            with pytest.raises(ConnectivityExceededError):
                nlgp(piece, k)
            continue
        got = nlgp(piece, k)
        assert got.separator == want.separator
        assert got.subgraphs == want.subgraphs
        for sub in got.subgraphs:
            assert np.array_equal(sub.edge_positions, fresh(sub).edge_positions)
            assert block_set(_biconnected_blocks(sub)) == block_set(tarjan_biconnected_blocks(sub))
            if sub.n > k:
                todo.append(sub)
        splits += 1
    return splits


class TestForestSplits:
    """Sizes 0 and 1 read off the lowpoint forest equal the enumeration."""

    @given(graphs(max_nodes=9), st.integers(1, 8))
    def test_graphs(self, g, k):
        assume(g.n > k)
        split_like_oracle(g, k)

    @given(forests(), st.integers(1, 8))
    def test_forests(self, g, k):
        assume(g.n > k)
        split_like_oracle(g, k)

    @settings(deadline=None)
    @given(chains(), st.integers(1, 8))
    def test_chains(self, g, k):
        assume(g.n > k)
        split_like_oracle(g, k)

    @given(disjoint_unions(), st.integers(1, 8))
    def test_four_or_more_components(self, g, k):
        assume(g.n > k)
        assert len(components_excluding(g, frozenset())) >= 4
        assert nlgp(g, k).separator == ()
        split_like_oracle(g, k)

    @given(cycles_with_pendants(), st.integers(3, 5))
    def test_pieces_below_a_two_node_separator(self, g, k):
        assume(g.n > k)
        split_like_oracle(g, k)

    def test_two_node_separator_then_cut_vertices(self):
        # C6 splits at (0, 2) into the paths 0-1-2 and 2-3-4-5-0; the long
        # one builds a fresh forest and splits at 3, and its piece 3-4-5-0
        # inherits that forest and splits at 4
        g = cycle_graph(6)
        assert nlgp(g, 3).separator == (0, 2)
        assert split_like_oracle(g, 3) == 3

    def test_one_dfs_serves_a_whole_chain(self, monkeypatch):
        # every split below the root reads an inherited forest
        g = fresh(random_chain_graph(120, 3))
        builds = []
        real = graphs_module._lowpoint_forest
        monkeypatch.setattr(graphs_module, "_lowpoint_forest", lambda *a: builds.append(a) or real(*a))
        monkeypatch.setattr(partition_module, "components_excluding", None)
        assert split_like_oracle(g, 8) > 40
        assert len(builds) == 1


class TestSeparationInvariants:
    def test_on_random_connected_graphs(self, rng):
        checked = 0
        for _ in range(60):
            n = int(rng.integers(5, 26))
            g = random_graph(n, min(0.5, 3.5 / n), seed=int(rng.integers(0, 10**6)))
            k = min(8, n - 1)
            try:
                split = nlgp(g, k)
            except ConnectivityExceededError:
                continue
            check_separation_invariants(g, split)
            checked += 1
        assert checked >= 30

    def test_minimality_small_graphs(self, rng):
        # no smaller node set, the empty one included, disconnects the graph
        verified = 0
        for _ in range(25):
            n = int(rng.integers(5, 13))
            g = random_graph(n, 0.35, seed=int(rng.integers(0, 10**6)))
            k = min(8, n - 1)
            try:
                split = nlgp(g, k)
            except ConnectivityExceededError:
                continue
            for smaller in range(len(split.separator)):
                for candidate in itertools.combinations(g.nodes, smaller):
                    assert not disconnects(g, candidate)
            verified += 1
        assert verified >= 10


class TestNrl:
    def test_toy_split(self):
        split = nlgp(toy_graph(), 4)
        assert nrl(toy_graph(), list(split.subgraphs)) == pytest.approx(1.2)

    def test_identity_partition(self):
        g = toy_graph()
        assert nrl(g, [g]) == 1.0

    def test_requires_coverage(self):
        with pytest.raises(ValueError):
            nrl(toy_graph(), [triangle()])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            nrl(toy_graph(), [])
