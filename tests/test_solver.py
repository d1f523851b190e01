import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcqaoa import qaoa, solver
from dcqaoa import (
    ConnectivityExceededError,
    DcConfig,
    Graph,
    ReconstructionError,
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
    rerank_by_cut,
    rescale,
    tree_nrl,
    weight_map,
)
from dcqaoa.seeds import derive_seed
from dcqaoa.graphs import refined_form
from conftest import (
    brute_force_form,
    complete_graph,
    count_maps,
    cycle_graph,
    enumerated_nlgp,
    floor_rescale,
    forests,
    graphs,
    isomorphic,
    relabel,
    toy_graph,
    triangle,
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


class TestDcQaoa:
    def test_base_case_equals_postprocessed_qaoa(self):
        g = toy_graph()
        cfg = DcConfig(k=8, s=500, t=20, p=2, seed=9, budget=60, restarts=2)
        via_dc = dc_qaoa(g, cfg)
        seed = derive_seed(cfg.seed, "leaf", g.nodes)
        direct = qaoa_maxcut(g, cfg.p, shots=cfg.s, seed=seed, budget=cfg.budget, restarts=cfg.restarts)
        expected = rescale(abridge(rerank_by_cut(g, direct), cfg.t), cfg.s)
        assert via_dc.counts == expected.counts

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
        except (ConnectivityExceededError, ReconstructionError):
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
        optimized, sampled = [], []
        real_optimize, real_sample = qaoa.optimize_params, qaoa.sample_solution_map

        def counting_optimize(g, *args, **kwargs):
            result = real_optimize(g, *args, **kwargs)
            optimized.append((g, result[0]))
            return result

        def counting_sample(g, params, *args, **kwargs):
            sampled.append((g, params))
            return real_sample(g, params, *args, **kwargs)

        monkeypatch.setattr(qaoa, "optimize_params", counting_optimize)
        monkeypatch.setattr(qaoa, "sample_solution_map", counting_sample)
        cfg = DcConfig(k=k, s=1000, t=20, seed=6, budget=60, restarts=2)
        _, tree = dc_qaoa_traced(g, cfg)

        # leaves are solved in the tree's pre-order
        assert [leaf.nodes for leaf, _ in sampled] == [leaf.nodes for leaf in tree.leaves()]
        # leaves given the same angles object are isomorphic
        for i, (leaf, params) in enumerate(sampled):
            for other, other_params in sampled[:i]:
                assert params is not other_params or isomorphic(leaf, other)
        # first leaf of each class, in solve order
        firsts: list = []
        for leaf, params in sampled:
            rep = next((f for f in firsts if isomorphic(leaf, f[0])), None)
            if rep is None:
                firsts.append((leaf, params))
            else:
                assert params == rep[1]
        assert optimized == firsts

        # a second solve starts from an empty cache
        dc_qaoa(g, cfg)
        assert len(optimized) == 2 * len(firsts)

    @pytest.mark.parametrize("n", [100, 300, 768])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refined_forms_group_chain_leaves_as_the_oracle(self, monkeypatch, n, seed):
        leaves = []
        real_sample = qaoa.sample_solution_map

        def recording_sample(g, *args, **kwargs):
            leaves.append(g)
            return real_sample(g, *args, **kwargs)

        monkeypatch.setattr(qaoa, "sample_solution_map", recording_sample)
        dc_qaoa_traced(random_chain_graph(n, seed), DcConfig(k=8, seed=1, budget=20, restarts=1))
        assert group_by(leaves, refined_form) == group_by(leaves, brute_force_form)


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
        try:
            _, tree = dc_qaoa_traced(g, cfg)
        except ReconstructionError:
            return
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
