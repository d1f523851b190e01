import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dcqaoa import qaoa, solver
from dcqaoa import (
    ConnectivityExceededError,
    DcConfig,
    Graph,
    SizeLimitError,
    SolutionMap,
    abridge,
    best_sampled_cut,
    brute_force_maxcut,
    chain_maxcut,
    dc_qaoa,
    dc_qaoa_traced,
    expectation_value,
    nlgp,
    qaoa_maxcut,
    random_chain_graph,
    random_graph,
    rerank_by_cut,
    rescale,
    tree_nrl,
    weight_map,
)
from dcqaoa.seeds import derive_seed
from dcqaoa.graphs import cut_values, refined_form
from conftest import (
    brute_force_form,
    chains,
    complete_graph,
    count_maps,
    cycle_graph,
    cycles_with_pendants,
    disjoint_unions,
    enumerated_nlgp,
    floor_rescale,
    forests,
    graphs,
    isomorphic,
    path_graph,
    relabel,
    scored_rerank_by_cut,
    toy_graph,
    triangle,
    unshared_solve_leaves,
)


class TestWeightMap:
    def test_multiplies_by_node_count(self):
        m = SolutionMap(tuple(range(6)), {"010101": 50})
        assert weight_map(m).counts == {"010101": 300}

    def test_empty(self):
        m = SolutionMap(tuple(range(3)), {})
        assert weight_map(m).counts == {}

    def test_preserves_order(self):
        m = SolutionMap((0, 1), {"01": 9, "10": 4, "00": 1})
        assert list(weight_map(m).counts) == ["01", "10", "00"]


class TestAbridge:
    def test_shorter_map_unchanged(self):
        m = SolutionMap((0, 1, 2), {format(b, "03b"): 10 - b for b in range(5)})
        assert abridge(m, 20).counts == m.counts

    def test_truncates_to_t(self):
        m = SolutionMap((0, 1, 2, 3, 4, 5), {format(b, "06b"): 50 - b for b in range(50)})
        out = abridge(m, 20)
        assert len(out.counts) == 20
        assert min(out.counts.values()) == 31

    def test_zero_counts_dropped(self):
        m = SolutionMap((0, 1), {"01": 5, "10": 0, "11": 3})
        assert abridge(m, 20).counts == {"01": 5, "11": 3}

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            abridge(SolutionMap((0,), {"0": 1}), 0)


class TestRescale:
    def test_already_scaled(self):
        m = SolutionMap((0, 1), {"01": 600, "10": 400})
        assert rescale(m, 1000).counts == {"01": 600, "10": 400}

    def test_upscales(self):
        m = SolutionMap((0, 1), {"01": 3, "10": 1})
        assert rescale(m, 1000).counts == {"01": 750, "10": 250}

    def test_floor_drops_small_entries(self):
        # s allows only two rows of count 1, so the first two stay
        m = SolutionMap((0, 1), {"00": 1, "01": 1, "10": 1})
        out = rescale(m, 2)
        assert out.counts == {"00": 1, "01": 1}

    def test_row_that_floors_to_zero_is_kept(self):
        # the plain floor gives 49 and 0; each row gets 1 + floor(48 * c / 101)
        m = SolutionMap((0, 1), {"01": 100, "10": 1})
        assert floor_rescale(m, 50).counts == {"01": 49}
        assert rescale(m, 50).counts == {"01": 48, "10": 1}

    @given(count_maps(), st.integers(1, 2000))
    def test_keeps_every_row_s_allows(self, m, s):
        out = rescale(m, s)
        r = min(len(m.row_counts), s)
        assert list(out.counts) == list(m.counts)[:r]
        assert all(c >= 1 for c in out.row_counts)
        assert out.total() <= s
        oracle = floor_rescale(m, s)
        if len(oracle.row_counts) == len(m.row_counts):
            assert out.counts == oracle.counts

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            rescale(SolutionMap((0,), {}), 10)

    def test_huge_counts_exact_floor(self):
        big = 10**30
        m = SolutionMap((0, 1), {"01": 2 * big, "10": big})
        out = rescale(m, 900)
        assert out.counts == {"01": 600, "10": 300}


# ER protocol draws that failed to merge while combine kept only agreeing pairs
NO_SHARED_SIGNATURE = (
    2, 109, 118, 279, 399, 570, 687, 711, 859, 908, 943, 955, 1025, 1268, 1303, 1318, 1348,
    1364, 1480,
)


class TestDcQaoa:
    def test_base_case_equals_postprocessed_qaoa(self):
        g = toy_graph()
        cfg = DcConfig(k=8, s=500, t=20, p=2, seed=9, budget=60, restarts=2)
        via_dc = dc_qaoa(g, cfg)
        seed = derive_seed(cfg.seed, "leaf", g.nodes)
        direct = qaoa_maxcut(g, cfg.p, shots=cfg.s, seed=seed, budget=cfg.budget, restarts=cfg.restarts)
        expected = rescale(abridge(rerank_by_cut(g, direct), cfg.t), cfg.s)
        assert via_dc.counts == expected.counts

    def test_leaf_over_the_qubit_cap_fails_before_any_table(self):
        # k above the simulator cap: the leaf is refused by its qubit count,
        # not by the cut table's own, larger limit after building it
        g = path_graph(21)
        with pytest.raises(SizeLimitError, match="simulator cap of 20"):
            dc_qaoa(g, DcConfig(k=21))
        assert "cut_table" not in vars(g)

    def test_toy_graph_finds_optimum(self):
        cfg = DcConfig(k=4, seed=7, budget=60, restarts=2)
        sol, tree = dc_qaoa_traced(toy_graph(), cfg)
        assert best_sampled_cut(toy_graph(), sol) == brute_force_maxcut(toy_graph())[0]
        assert tree.separator == (2,)
        assert len(tree.leaves()) == 2
        assert tree_nrl(toy_graph(), tree) == pytest.approx(1.2)

    def test_output_respects_t_and_s(self):
        cfg = DcConfig(k=4, t=5, s=300, seed=3, budget=40, restarts=1)
        sol = dc_qaoa(toy_graph(), cfg)
        assert len(sol.counts) <= 5
        assert sol.total() <= 300
        assert all(len(a) == 5 for a in sol.counts)

    def test_deterministic_output(self):
        cfg = DcConfig(k=4, seed=21, budget=40, restarts=2)
        a = dc_qaoa(toy_graph(), cfg)
        b = dc_qaoa(toy_graph(), cfg)
        assert list(a.counts.items()) == list(b.counts.items())

    def test_isolated_separator_node_in_child(self):
        # the star splits at its centre into the halves {1} and {2, 3}, and
        # K2,3 at its hubs (0, 4) into {1} and {2, 3}; every separator node
        # is in both children
        cases = [
            (Graph.from_edges([(0, 1), (0, 2), (0, 3)]), 3, [(0, 1), (0, 2, 3)], 3),
            (
                Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
                4,
                [(0, 1, 4), (0, 2, 3, 4)],
                6,
            ),
        ]
        for g, k, children, best in cases:
            sol, tree = dc_qaoa_traced(g, DcConfig(k=k, seed=5, budget=40, restarts=2))
            assert [child.nodes for child in tree.children] == children
            assert sol.total() >= 1
            assert best_sampled_cut(g, sol) == best

    def test_partition_fails_before_any_leaf_is_optimized(self, monkeypatch):
        # the triangle side is a leaf; the K5 side cannot split below k = 4
        k5 = relabel(complete_graph(5), {v: v + 10 for v in range(5)})
        g = Graph.from_edges([*triangle().edges, *k5.edges])
        calls = []
        real_optimize = qaoa.optimize_params

        def counting_optimize(*args, **kwargs):
            calls.append(args[0])
            return real_optimize(*args, **kwargs)

        monkeypatch.setattr(qaoa, "optimize_params", counting_optimize)
        with pytest.raises(ConnectivityExceededError):
            dc_qaoa(g, DcConfig(k=4, seed=1, budget=10, restarts=1))
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=9), st.integers(2, 4))
    def test_any_graph_solves_or_fails_cleanly(self, g, k):
        # graphs() draws disconnected graphs and isolated nodes too
        cfg = DcConfig(k=k, s=200, t=8, seed=3, budget=10, restarts=1)
        try:
            sol = dc_qaoa(g, cfg)
        except ConnectivityExceededError:
            return
        assert sol.nodes == g.nodes
        assert 1 <= len(sol.counts) <= cfg.t
        assert sol.total() <= cfg.s
        assert best_sampled_cut(g, sol) <= brute_force_maxcut(g)[0]

    @settings(max_examples=40, deadline=None)
    @given(forests(), st.integers(2, 4))
    def test_every_forest_solves(self, g, k):
        # a forest above the budget is disconnected or has a cut vertex, so it always splits
        sol = dc_qaoa(g, DcConfig(k=k, s=200, t=8, seed=3, budget=10, restarts=1))
        assert sol.nodes == g.nodes
        # a forest is bipartite, so every edge can be cut
        assert best_sampled_cut(g, sol) <= g.m

    def test_maps_sharing_no_signature_still_merge(self):
        # ROADMAP's ER protocol draws, and chains at t = 1 and 2, whose two
        # children's maps share no separator signature at some split
        rng = np.random.default_rng(0)
        cases = []
        for i in range(max(NO_SHARED_SIGNATURE) + 1):
            n, k = int(rng.integers(6, 13)), int(rng.integers(3, 6))
            p = float(rng.choice([2.5 / n, 3.5 / n]))
            if i in NO_SHARED_SIGNATURE:
                cfg = DcConfig(k=k, seed=0, budget=60, restarts=2)
                cases.append((random_graph(n, p, i), cfg))
        cases += [
            (random_chain_graph(100, seed), DcConfig(t=t, budget=10, restarts=1))
            for seed in (1, 2, 3)
            for t in (1, 2)
        ]
        for g, cfg in cases:
            sol = dc_qaoa(g, cfg)
            assert 1 <= len(sol.row_counts) <= cfg.t
            assert best_sampled_cut(g, sol) <= chain_maxcut(g)

    def test_hundred_node_chain_reaches_optimum(self):
        g = random_chain_graph(100, seed=2)
        cfg = DcConfig(k=8, s=2000, t=20, seed=6, budget=60, restarts=2)
        sol = dc_qaoa(g, cfg)
        assert best_sampled_cut(g, sol) / chain_maxcut(g) >= 0.97

    def test_cycle_longer_than_k_reaches_optimum(self):
        # no path of fewer than k nodes separates a long cycle; a node pair does
        g = cycle_graph(24)
        sol = dc_qaoa(g, DcConfig(k=8, budget=60, restarts=2))
        assert best_sampled_cut(g, sol) == chain_maxcut(g) == 24

    def test_expectation_tracks_counts(self):
        cfg = DcConfig(k=4, seed=11, budget=60, restarts=2)
        sol = dc_qaoa(toy_graph(), cfg)
        ev = expectation_value(toy_graph(), sol)
        best = best_sampled_cut(toy_graph(), sol)
        assert 0 < ev <= best

    def test_mean_quality_non_decreasing_in_samples(self):
        g = random_chain_graph(30, seed=1)
        exact = chain_maxcut(g)
        means = []
        for s in (250, 2000):
            runs = []
            for rep in range(3):
                cfg = DcConfig(k=8, s=s, t=20, seed=derive_seed(13, s, rep), budget=60, restarts=2)
                runs.append(best_sampled_cut(g, dc_qaoa(g, cfg)) / exact)
            means.append(sum(runs) / len(runs))
        assert means[1] >= means[0] - 1e-9


def c7_with_chords() -> Graph:
    return Graph.from_edges([*cycle_graph(7).edges, (0, 2), (1, 4)])


def glued_c7_pair() -> Graph:
    """Two copies of C7 plus chords (0, 2) and (1, 4), sharing node 6; the
    second copy's labels put its nodes in another order."""
    second = relabel(c7_with_chords(), {0: 6, 1: 9, 2: 7, 3: 12, 4: 8, 5: 11, 6: 10})
    return Graph.from_edges([*c7_with_chords().edges, *second.edges])


def group_by(items, key) -> set[frozenset[int]]:
    """The partition of item indices into classes of equal key."""
    classes: dict = {}
    for i, item in enumerate(items):
        classes.setdefault(key(item), set()).add(i)
    return {frozenset(c) for c in classes.values()}


class TestAngleCache:
    @pytest.mark.parametrize(
        "g, k",
        [
            (random_chain_graph(100, seed=2), 8),  # K2/K3/K4 leaves, most repeated
            (toy_graph(), 4),  # a triangle and a 3-node path: same size, not isomorphic
            (glued_c7_pair(), 7),  # two isomorphic 7-node leaves
        ],
    )
    def test_optimizer_runs_once_per_leaf_class(self, monkeypatch, g, k):
        leaves = recorded_leaves(monkeypatch)
        optimized, distributions, sampled = [], [], []
        real_optimize, real_distribution = qaoa.optimize_params, qaoa.output_distribution
        real_sample = qaoa.sample_solution_map

        def counting_optimize(g, *args, **kwargs):
            result = real_optimize(g, *args, **kwargs)
            optimized.append((g, result[0]))
            return result

        def recording_distribution(g, params):
            distributions.append((real_distribution(g, params), params))
            return distributions[-1][0]

        def counting_sample(g, probs, *args, **kwargs):
            # the angles of the distribution the leaf draws from
            sampled.append((g, next(params for d, params in distributions if d is probs)))
            return real_sample(g, probs, *args, **kwargs)

        monkeypatch.setattr(qaoa, "optimize_params", counting_optimize)
        monkeypatch.setattr(qaoa, "output_distribution", recording_distribution)
        monkeypatch.setattr(qaoa, "sample_solution_map", counting_sample)
        cfg = DcConfig(k=k, s=1000, t=20, seed=6, budget=60, restarts=2)
        _, tree = dc_qaoa_traced(g, cfg)

        # the leaves are the tree's, in pre-order, and each draws once
        assert [leaf.nodes for leaf in leaves] == [leaf.nodes for leaf in tree.leaves()]
        assert len(sampled) == len(leaves)
        # leaves given the same angles object are isomorphic
        for i, (leaf, params) in enumerate(sampled):
            for other, other_params in sampled[:i]:
                assert params is not other_params or isomorphic(leaf, other)
        # one optimizer run per class, on its first leaf in pre-order, whose
        # angles every leaf of the class draws with
        firsts: list = []
        for leaf in leaves:
            if not any(isomorphic(leaf, f) for f in firsts):
                firsts.append(leaf)
        assert [run for run, _ in optimized] == firsts
        for leaf, params in sampled:
            rep = next(i for i, f in enumerate(firsts) if isomorphic(leaf, f))
            assert params is optimized[rep][1]

        # a second solve starts from an empty cache
        dc_qaoa(g, cfg)
        assert len(optimized) == 2 * len(firsts)

    @pytest.mark.parametrize("n", [100, 300, 768])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refined_forms_group_chain_leaves_as_the_oracle(self, monkeypatch, n, seed):
        leaves = recorded_leaves(monkeypatch)
        dc_qaoa_traced(random_chain_graph(n, seed), DcConfig(k=8, seed=1, budget=20, restarts=1))
        assert group_by(leaves, refined_form) == group_by(leaves, brute_force_form)


def leaf_shape(g: Graph) -> tuple:
    return g.n, tuple(map(tuple, g.edge_positions.tolist()))


def recorded_leaves(monkeypatch) -> list[Graph]:
    """The leaves each later solve hands to solver._solve_leaves, in pre-order."""
    leaves = []
    real = solver._solve_leaves

    def recording(pairs, cfg):
        leaves.extend(g for g, _ in pairs)
        return real(pairs, cfg)

    monkeypatch.setattr(solver, "_solve_leaves", recording)
    return leaves


def first_of_each_shape(leaves: list[Graph]) -> list[Graph]:
    firsts: dict = {}
    for leaf in leaves:
        firsts.setdefault(leaf_shape(leaf), leaf)
    return list(firsts.values())


def checked_solve(g: Graph, cfg: DcConfig):
    """dc_qaoa_traced with every rerank checked against the scored oracle:
    each map handed to rerank_by_cut carries the cuts cut_values gives, and
    the rerank equals the oracle in rows, counts and order. Returns the
    solution and tree, or the error type the solve raised."""
    real = solver.rerank_by_cut

    def checked_rerank(g, m):
        assert m.cuts is not None
        assert np.array_equal(m.cuts, cut_values(g, m.rows))
        out, want = real(g, m), scored_rerank_by_cut(g, m)
        assert np.array_equal(out.rows, want.rows)
        assert out.row_counts == want.row_counts
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "rerank_by_cut", checked_rerank)
        try:
            return dc_qaoa_traced(g, cfg)
        except ConnectivityExceededError as exc:
            return type(exc)


def unshared_solve(g: Graph, cfg: DcConfig):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_solve_leaves", unshared_solve_leaves)
        try:
            return dc_qaoa_traced(g, cfg)
        except ConnectivityExceededError as exc:
            return type(exc)


def assert_carried_and_shared_are_exact(g: Graph, k: int, seed: int):
    """Carried cuts equal scored ones at every rerank, and sharing per leaf
    shape gives the same map, in the same order, as unshared leaves.
    Returns the solve's tree (None when it raised)."""
    cfg = DcConfig(k=k, p=1, s=200, t=8, seed=seed, budget=8, restarts=1)
    got, want = checked_solve(g, cfg), unshared_solve(g, cfg)
    if isinstance(got, type):
        assert got is want
        return None
    (solution, tree), (oracle, _) = got, want
    assert list(solution.counts.items()) == list(oracle.counts.items())
    assert np.array_equal(solution.cuts, oracle.cuts)
    assert np.array_equal(solution.cuts, cut_values(g, solution.rows))
    return tree


class TestSharedLeafWork:
    """Cuts ride up the tree with their rows, and leaves of one shape share
    one key, cut table and distribution; both are exact."""

    @settings(max_examples=25, deadline=None)
    @given(chains(), st.integers(2, 8), st.integers(0, 3))
    def test_chains(self, g, k, seed):
        assume(g.n > k)
        assert_carried_and_shared_are_exact(g, k, seed)

    @settings(max_examples=25, deadline=None)
    @given(forests(), st.integers(2, 6), st.integers(0, 3))
    def test_forests(self, g, k, seed):
        assert_carried_and_shared_are_exact(g, k, seed)

    @settings(max_examples=15, deadline=None)
    @given(disjoint_unions(), st.integers(2, 6), st.integers(0, 3))
    def test_disjoint_unions(self, g, k, seed):
        assert_carried_and_shared_are_exact(g, k, seed)

    @settings(max_examples=15, deadline=None)
    @given(cycles_with_pendants(), st.integers(3, 5), st.integers(0, 3))
    def test_cycles_with_pendants(self, g, k, seed):
        assert_carried_and_shared_are_exact(g, k, seed)

    # 6-9 nodes and n to 1.5n edges: most trees need a 2- or 3-node separator at k = 3, 4
    sparse_graphs = st.integers(6, 9).flatmap(
        lambda n: st.integers(n, 3 * n // 2).flatmap(
            lambda m: graphs(nodes=list(range(n)), edge_count=m)
        )
    )

    @settings(max_examples=25, deadline=None)
    @given(sparse_graphs, st.integers(3, 4), st.integers(0, 3))
    def test_graphs_split_at_two_and_three_nodes(self, g, k, seed):
        tree = assert_carried_and_shared_are_exact(g, k, seed)
        assume(tree is not None)
        assume(any(len(node.separator) >= 2 for node in tree.preorder()))

    def test_distribution_computed_once_per_leaf_shape(self, monkeypatch):
        leaves = recorded_leaves(monkeypatch)
        computed, sampled = [], []
        real_distribution, real_sample = qaoa.output_distribution, qaoa.sample_solution_map

        def recording_distribution(g, params):
            computed.append((g, real_distribution(g, params)))
            return computed[-1][1]

        def recording_sample(g, probs, *args, **kwargs):
            # each draw reads the distribution computed last, on that graph
            assert g is computed[-1][0] and probs is computed[-1][1]
            sampled.append(g)
            return real_sample(g, probs, *args, **kwargs)

        monkeypatch.setattr(qaoa, "output_distribution", recording_distribution)
        monkeypatch.setattr(qaoa, "sample_solution_map", recording_sample)
        cfg = DcConfig(k=8, seed=1, budget=20, restarts=1)
        dc_qaoa_traced(random_chain_graph(100, 2), cfg)

        shapes = [leaf_shape(leaf) for leaf in leaves]
        assert len(set(shapes)) < len(shapes)
        # one distribution per shape, on its first leaf, in pre-order of first leaves
        firsts = first_of_each_shape(leaves)
        assert [g for g, _ in computed] == firsts
        # one draw per leaf, on the first leaf of its shape
        assert Counter(map(leaf_shape, sampled)) == Counter(shapes)

    def test_one_distribution_alive_at_a_time(self, monkeypatch):
        alive, most = [], []
        real_distribution, real_sample = qaoa.output_distribution, qaoa.sample_solution_map

        def tracked_distribution(g, params):
            probs = real_distribution(g, params)
            alive.append(weakref.ref(probs))
            return probs

        def counting_sample(*args, **kwargs):
            most.append(sum(ref() is not None for ref in alive))
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(qaoa, "output_distribution", tracked_distribution)
        monkeypatch.setattr(qaoa, "sample_solution_map", counting_sample)
        dc_qaoa(random_chain_graph(768, 1), DcConfig(k=8, seed=1, budget=20, restarts=1))
        assert len(most) > len(alive) > 1
        assert max(most) == 1

    def test_leaves_of_one_shape_share_one_cut_table(self, monkeypatch):
        leaves = recorded_leaves(monkeypatch)
        dc_qaoa(random_chain_graph(100, 2), DcConfig(k=8, seed=1, budget=20, restarts=1))
        # cached_property keeps a built table in the instance dict
        built = [leaf for leaf in leaves if "cut_table" in vars(leaf)]
        assert built == first_of_each_shape(leaves) != leaves


def ring_chain(blocks: int, size: int, seed: int, isolated: int = 0) -> Graph:
    """`blocks` rings of `size` nodes plus random chords, consecutive rings
    sharing one node, and `isolated` nodes without edges after them."""
    rng = np.random.default_rng(seed)
    edges, joint, label = set(), 0, 1
    for _ in range(blocks):
        ring = [joint, *range(label, label + size - 1)]
        label += size - 1
        edges |= {tuple(sorted((ring[i], ring[i - 1]))) for i in range(size)}
        edges |= {(ring[i], ring[j]) for i in range(size) for j in range(i + 2, size)
                  if rng.random() < 0.4}
        joint = ring[-1]
    return Graph.from_edges(sorted(edges), nodes=range(label + isolated))


def side_by_side(parts: list[Graph]) -> Graph:
    """The disjoint union of `parts`, each relabelled past the nodes before it."""
    edges, nodes = [], []
    for part in parts:
        mapping = {v: len(nodes) + i for i, v in enumerate(part.nodes)}
        edges += relabel(part, mapping).edges
        nodes += mapping.values()
    return Graph.from_edges(edges, nodes=nodes)


class TestWarmStartDonors:
    """Each optimizer run on a leaf with edges starts from the angles and
    expectation ratio of the last one on a leaf of its size, if any; a leaf
    without edges neither takes nor gives a start."""

    @staticmethod
    def recorded_runs(monkeypatch):
        runs = []
        real = qaoa.optimize_params

        def recording(g, *args, start=None, **kwargs):
            result = real(g, *args, start=start, **kwargs)
            runs.append((g, start, result))
            return result

        monkeypatch.setattr(qaoa, "optimize_params", recording)
        return runs

    @staticmethod
    def assert_donor_rule(runs):
        donors = {}
        for g, start, (params, value) in runs:
            max_cut = int(g.cut_table.max())
            assert start == (donors.get(g.n) if max_cut else None)
            if max_cut:
                donors[g.n] = (params, value / max_cut)

    def test_rings_of_one_size(self, monkeypatch):
        runs = self.recorded_runs(monkeypatch)
        dc_qaoa(ring_chain(4, 6, seed=3, isolated=8), DcConfig(k=6, p=2, budget=30, restarts=2))
        self.assert_donor_rule(runs)
        assert sum(start is not None for _, start, _ in runs) == 3

    def test_leaves_without_edges_neither_take_nor_give(self, monkeypatch):
        runs = self.recorded_runs(monkeypatch)
        first, second = random_graph(6, 0.6, seed=1), random_graph(6, 0.6, seed=2)
        lone = Graph.from_edges([], nodes=[0])
        # 24 components: the first 12 split into 6 copies of first and 6 lone
        # nodes, one edgeless 6-node leaf; copies reuse their original's angles
        dc_qaoa(side_by_side([first] * 6 + [lone] * 6 + [second] * 12),
                DcConfig(k=6, p=1, budget=10, restarts=2))
        empty = Graph.from_edges([], nodes=range(36, 42))
        second_copy = relabel(second, {v: 42 + v for v in second.nodes})
        assert [g for g, _, _ in runs] == [first, empty, second_copy]
        params, value = runs[0][2]
        assert [start for _, start, _ in runs] == [
            None, None, (params, value / int(first.cut_table.max()))
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(graphs(max_nodes=9), chains(max_nodes=20), forests()), st.integers(2, 4))
    def test_any_graph(self, g, k):
        with pytest.MonkeyPatch.context() as mp:
            runs = self.recorded_runs(mp)
            try:
                dc_qaoa(g, DcConfig(k=k, p=1, s=100, t=8, budget=8, restarts=2))
            except ConnectivityExceededError:
                pass
        self.assert_donor_rule(runs)


class TestMapsFromMaps:
    def test_only_sampled_rows_are_scanned(self, monkeypatch):
        # take, weight_map, combine and rerank_by_cut slice or merge the rows
        # of maps already checked, so only the leaves' samples are scanned
        scanned = []
        real = SolutionMap.from_rows

        def counting(cls, nodes, *args, **kwargs):
            scanned.append(nodes)
            return real(nodes, *args, **kwargs)

        monkeypatch.setattr(SolutionMap, "from_rows", classmethod(counting))
        cfg = DcConfig(k=8, seed=1, budget=20, restarts=1)
        _, tree = dc_qaoa_traced(random_chain_graph(100, 2), cfg)
        # one scan per leaf, each over a leaf's nodes
        assert len(scanned) == len(tree.leaves())
        assert set(scanned) <= {leaf.nodes for leaf in tree.leaves()}


class TestDcConfig:
    def test_defaults(self):
        cfg = DcConfig()
        assert (cfg.p, cfg.t, cfg.s, cfg.k) == (3, 20, 1000, 8)
        assert cfg.scheme == "minXmul"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"t": 0},
            {"s": 0},
            {"p": 0},
            {"budget": 0},
            {"restarts": 0},
            {"scheme": "max"},
            {"s": 2**63},  # above the most draws numpy's multinomial sampler takes
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DcConfig(**kwargs)


# K2,3 splits at the two-node separator (0, 4)
K23 = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
# random_graph(9, 0.4, 4): at k = 4 all five of its splits are at two-node
# separators
ER9 = Graph.from_edges([
    (0, 4), (0, 5), (0, 6), (0, 8), (1, 2), (1, 5), (2, 4), (2, 7),
    (3, 4), (3, 6), (4, 5), (4, 8), (5, 7), (6, 8), (7, 8),
])


def split_by_hand(g, k):
    """nlgp recursed from g, g1's subtree first: (nodes, separator) in pre-order."""
    if g.n <= k:
        return [(g.nodes, ())]
    split = nlgp(g, k)
    g1, g2 = split.subgraphs
    return [(g.nodes, split.separator), *split_by_hand(g1, k), *split_by_hand(g2, k)]


class TestPartitionTree:
    # two graphs that split only at two-node separators, given explicitly
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=9), st.integers(2, 4))
    @example(K23, 4)
    @example(ER9, 4)
    def test_tree_is_nlgp_recursed_by_hand(self, g, k):
        # the solver solves exactly the subgraphs nlgp returns
        cfg = DcConfig(k=k, s=200, t=8, seed=3, budget=10, restarts=1)
        try:
            expected = split_by_hand(g, k)
        except ConnectivityExceededError:
            with pytest.raises(ConnectivityExceededError):
                dc_qaoa_traced(g, cfg)
            return
        _, tree = dc_qaoa_traced(g, cfg)
        assert [(node.nodes, node.separator) for node in tree.preorder()] == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_solve_equals_enumerated_separators(self, seed, monkeypatch):
        # the forest-read separators change no map and no tree
        g = random_chain_graph(300, seed)
        cfg = DcConfig(k=8, seed=seed, budget=10, restarts=1)
        solution, tree = dc_qaoa_traced(g, cfg)
        monkeypatch.setattr(solver, "nlgp", enumerated_nlgp)
        want_solution, want_tree = dc_qaoa_traced(Graph(nodes=g.nodes, edges=g.edges), cfg)
        assert solution.to_dict() == want_solution.to_dict()
        assert tree.to_dict() == want_tree.to_dict()

    def test_single_leaf_when_graph_fits(self):
        cfg = DcConfig(k=8, seed=2, budget=40, restarts=1)
        _, tree = dc_qaoa_traced(toy_graph(), cfg)
        assert tree.is_leaf
        assert tree.count() == 1
        assert tree_nrl(toy_graph(), tree) == 1.0

    def test_tree_serialization(self):
        cfg = DcConfig(k=4, seed=2, budget=40, restarts=1)
        _, tree = dc_qaoa_traced(toy_graph(), cfg)
        payload = tree.to_dict()
        assert len(payload) == 3
        assert payload[0]["separator"] == [2]
        assert payload[0]["children"] == [1, 2]
        assert payload[0]["split_nrl"] == pytest.approx(1.2)
        assert [entry["nodes"] for entry in payload[1:]] == [
            list(child.nodes) for child in tree.children
        ]
        assert all("children" not in entry for entry in payload[1:])


class TestWorkCounts:
    """The paper's claim that divide and conquer makes QAOA's time quadratic,
    as exact counts of work: split, merge and rerank work on chains grows at
    most about as n^2 (each measured slope is 1.96-2.02)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_work_grows_at_most_quadratically(self, seed, exact_leaves, monkeypatch):
        counts = {"nlgp": 0, "combine": 0, "rerank_by_cut": 0}

        def counted_nlgp(g, k, nlgp=solver.nlgp):
            counts["nlgp"] += g.n
            return nlgp(g, k)

        def counted_combine(*args, combine=solver.combine):
            out = combine(*args)
            counts["combine"] += out.rows.size
            return out

        def counted_rerank(g, m, rerank_by_cut=solver.rerank_by_cut):
            counts["rerank_by_cut"] += len(m.row_counts) * g.m
            return rerank_by_cut(g, m)

        monkeypatch.setattr(solver, "nlgp", counted_nlgp)
        monkeypatch.setattr(solver, "combine", counted_combine)
        monkeypatch.setattr(solver, "rerank_by_cut", counted_rerank)
        sizes, logs = (256, 512, 1024), []
        for n in sizes:
            counts.update(dict.fromkeys(counts, 0))
            g = random_chain_graph(n, seed)
            solution = dc_qaoa(g, DcConfig(k=8, t=20))
            # exact leaves and one-node separators make the merged optimum exact
            assert best_sampled_cut(g, solution) == chain_maxcut(g)
            logs.append([math.log2(c) for c in counts.values()])
        for name, column in zip(counts, np.transpose(logs)):
            slope = np.polyfit(np.log2(sizes), column, 1)[0]
            assert slope <= 2.3, (name, slope)
