import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dcqaoa import (
    ConnectivityExceededError,
    Graph,
    nlgp,
    nrl,
    random_graph,
)
from dcqaoa.graphs import components_excluding
from dcqaoa.partition import iter_paths
from conftest import (
    check_separation_invariants,
    complete_graph,
    forests,
    graphs,
    path_graph,
    toy_graph,
    triangle,
)


def all_paths_oracle(g, length):
    """Independent simple-path enumeration via permutations, up to reversal."""
    adj = {v: set(nb) for v, nb in g.adjacency.items()}
    found = set()
    for perm in itertools.permutations(g.nodes, length):
        if all(perm[i + 1] in adj[perm[i]] for i in range(length - 1)):
            found.add(min(perm, perm[::-1]))
    return sorted(list(p) for p in found)


def disconnects(g, nodes_removed):
    return len(components_excluding(g, set(nodes_removed))) >= 2


class TestEnumeratePaths:
    def test_single_nodes(self):
        assert list(iter_paths(triangle(), 1)) == [[0], [1], [2]]

    def test_triangle_edges(self):
        assert list(iter_paths(triangle(), 2)) == [[0, 1], [0, 2], [1, 2]]

    def test_path_graph_full_length(self):
        assert list(iter_paths(path_graph(3), 3)) == [[0, 1, 2]]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            list(iter_paths(triangle(), -1))

    def test_empty_path(self):
        assert list(iter_paths(triangle(), 0)) == [[]]

    def test_matches_permutation_oracle(self, rng):
        for _ in range(8):
            g = random_graph(int(rng.integers(4, 9)), 0.5, seed=int(rng.integers(0, 10**6)))
            for length in (2, 3):
                assert list(iter_paths(g, length)) == all_paths_oracle(g, length)

    def test_lexicographic_order(self):
        g = complete_graph(4)
        paths = list(iter_paths(g, 3))
        assert paths == sorted(paths)


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

    def test_separator_node_without_edge_on_side_two_stays_on_side_one(self):
        # K2,3 splits at the path (0, 1, 4); node 1's edges (0, 1) and (1, 4)
        # are separator-internal and go to g1, so g2 leaves node 1 out
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        split = nlgp(g, 4)
        check_separation_invariants(g, split)
        g1, g2 = split.subgraphs
        assert split.separator == (0, 1, 4)
        assert g1.nodes == (0, 1, 2, 4)
        assert g1.edges == ((0, 1), (0, 2), (1, 4), (2, 4))
        assert g2.nodes == (0, 3, 4)
        assert g2.edges == ((0, 3), (3, 4))

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
        # no shorter path, the empty one included, disconnects the graph
        verified = 0
        for _ in range(25):
            n = int(rng.integers(5, 13))
            g = random_graph(n, 0.35, seed=int(rng.integers(0, 10**6)))
            k = min(8, n - 1)
            try:
                split = nlgp(g, k)
            except ConnectivityExceededError:
                continue
            for shorter in range(len(split.separator)):
                for candidate in all_paths_oracle(g, shorter):
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
