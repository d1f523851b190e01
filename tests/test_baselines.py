from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcqaoa import (
    Graph,
    greedy_local_search,
    random_chain_graph,
    random_graph,
    random_search,
)
from dcqaoa import baselines
from dcqaoa.graphs import column_cuts
from dcqaoa.seeds import derive_seed
from conftest import (
    blocked_random_search,
    cycle_graph,
    gathered_cut_values,
    graphs,
    k2,
    naive_cut_size,
    path_graph,
    positions,
    triangle,
)


def greedy_loop(g, seed, restarts):
    """Node-by-node greedy climb: (assignment, cut, evaluations), the oracle
    for the vectorized gain scan in greedy_local_search."""
    n = g.n
    pos = positions(g)
    adj_pos = {pos[v]: [pos[w] for w in nbrs] for v, nbrs in g.adjacency.items()}
    best_bits, best_cut, evaluations = None, -1, 0
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, "restart", r))
        bits = rng.integers(0, 2, size=n, dtype=np.int8)
        bits[0] = 0
        cut = naive_cut_size(g, "".join(str(b) for b in bits))
        evaluations += 1
        improved = True
        while improved:
            improved = False
            best_gain, best_node = 0, -1
            for v in range(n):
                same = sum(1 for w in adj_pos[v] if bits[w] == bits[v])
                gain = same - (len(adj_pos[v]) - same)
                evaluations += 1
                if gain > best_gain:
                    best_gain, best_node = gain, v
            if best_node >= 0:
                bits[best_node] ^= 1
                cut += best_gain
                improved = True
        if cut > best_cut:
            best_cut, best_bits = cut, bits.copy()
    return "".join(str(b) for b in best_bits), best_cut, evaluations


def one_shot_random_search(g, budget, seed):
    """(assignment, cut) from one draw of all `budget` rows: the oracle for
    the blocked draw in random_search."""
    rows = np.zeros((budget, g.n), dtype=np.uint8)
    if g.n > 1:
        rows[:, 1:] = np.random.default_rng(seed).integers(
            0, 2, size=(budget, g.n - 1), dtype=np.uint8
        )
    cuts = gathered_cut_values(g, rows)
    best = int(np.argmax(cuts))
    return "".join(str(b) for b in rows[best]), int(cuts[best])


def edgeless(n):
    return Graph.from_edges([], nodes=range(n))


class TestRandomSearch:
    @pytest.mark.parametrize("block", [4, 8, 12])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 10])
    @pytest.mark.parametrize("budget", [1, 5, 13, 30, 101])
    def test_blocks_match_one_shot_oracle(self, block, n, budget):
        # the blocked oracle's own premise: blocks of whole 32-bit words
        # continue one draw of every row
        g = random_graph(n, 0.6, seed=n)
        assert blocked_random_search(g, budget, budget + n, block) == one_shot_random_search(
            g, budget, budget + n
        )

    @pytest.mark.parametrize("block", [64, 128, 192])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 10])
    @pytest.mark.parametrize("budget", [1, 5, 13, 30, 101])
    def test_packed_blocks_match_one_shot_oracle(self, monkeypatch, block, n, budget):
        g = random_graph(n, 0.6, seed=n)
        monkeypatch.setattr(baselines, "_SEARCH_BLOCK_ROWS", block)
        result = random_search(g, budget=budget, seed=budget + n)
        assert (result.best_assignment, result.best_cut) == one_shot_random_search(
            g, budget, budget + n
        )
        assert result.evaluations == budget

    def test_default_blocks_match_one_shot_oracle(self):
        # 33 draws per row; with this seed the first best row lies in the second block
        g = random_chain_graph(34, seed=2)
        budget = 2 * baselines._SEARCH_BLOCK_ROWS + 7
        result = random_search(g, budget=budget, seed=0)
        assert (result.best_assignment, result.best_cut) == one_shot_random_search(g, budget, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(graphs(max_nodes=12), st.integers(1, 12).map(edgeless)),
        st.one_of(
            st.integers(1, 3 * 4096 + 63),
            st.sampled_from([63, 64, 65, 4095, 4096, 4097, 2 * 4096 + 1, 3 * 4096 + 63]),
        ),
        st.integers(0, 2**32),
    )
    @example(edgeless(1), 100, 0)
    @example(k2(), 3 * 4096 + 63, 1)
    @example(edgeless(2), 4097, 2)
    def test_matches_blocked_oracle(self, g, budget, seed):
        result = random_search(g, budget=budget, seed=seed)
        assert (result.best_assignment, result.best_cut) == blocked_random_search(g, budget, seed)

    @pytest.mark.parametrize("count", [8, 64, 4088, 8 * 4096, 511 * 4096])
    @pytest.mark.parametrize("seed", [0, 90001])
    def test_coins_follow_bounded_uint8_stream(self, count, seed):
        bitgen = np.random.default_rng(seed).bit_generator
        blocks = [baselines._coin_bytes(bitgen, count) >> 7 for _ in range(2)]
        expected = np.random.default_rng(seed).integers(0, 2, size=2 * count, dtype=np.uint8)
        assert np.array_equal(np.concatenate(blocks), expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 63, 64, 65, 1000])
    def test_packed_cuts_match_cut_values(self, m):
        n = 50
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = np.random.default_rng(m).choice(len(pairs), size=m, replace=False)
        g = Graph.from_edges([pairs[i] for i in picks], nodes=range(n))
        coins = np.random.default_rng(m).integers(0, 256, size=(256, n - 1), dtype=np.uint8)
        rows = np.zeros((256, n), dtype=np.uint8)
        rows[:, 1:] = coins >> 7
        cuts = column_cuts(g, baselines._pack_rows(coins), 256)
        assert np.array_equal(cuts, gathered_cut_values(g, rows))

    def test_pool_threads_match_serial_runs(self):
        jobs = [
            (random_chain_graph(128, seed=1), 3 * baselines._SEARCH_BLOCK_ROWS + 1000, 5),
            (random_graph(40, 0.3, seed=1), 5 * baselines._SEARCH_BLOCK_ROWS + 17, 6),
        ]
        serial = [random_search(*job) for job in jobs]
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(random_search, *job) for job in jobs]
            pooled = [f.result(timeout=60) for f in futures]
        assert [(r.best_assignment, r.best_cut) for r in pooled] == [
            (r.best_assignment, r.best_cut) for r in serial
        ]

    def test_k2_small_budget_finds_cut(self):
        result = random_search(k2(), budget=10, seed=0)
        assert result.best_cut == 1
        assert result.evaluations == 10

    def test_triangle_finds_optimum(self):
        result = random_search(triangle(), budget=100, seed=1)
        assert result.best_cut == 2

    def test_budget_one(self):
        result = random_search(triangle(), budget=1, seed=5)
        assert result.evaluations == 1
        assert 0 <= result.best_cut <= 2

    def test_best_cut_matches_assignment(self, rng):
        g = random_graph(12, 0.3, seed=4)
        result = random_search(g, budget=500, seed=8)
        assert naive_cut_size(g, result.best_assignment) == result.best_cut

    def test_first_bit_fixed(self):
        result = random_search(triangle(), budget=50, seed=3)
        assert result.best_assignment[0] == "0"

    def test_deterministic(self):
        g = random_graph(10, 0.4, seed=2)
        a = random_search(g, budget=200, seed=9)
        b = random_search(g, budget=200, seed=9)
        assert a.best_assignment == b.best_assignment
        assert a.best_cut == b.best_cut

    def test_nested_budget_prefix_property(self):
        g = random_graph(14, 0.3, seed=6)
        best = [random_search(g, budget=b, seed=11).best_cut for b in (50, 100, 200, 400)]
        assert best == sorted(best)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            random_search(triangle(), budget=0, seed=1)

    def test_graph_without_nodes_is_refused(self):
        with pytest.raises(ValueError, match="^graph has no nodes$"):
            random_search(Graph.from_edges([]), 10, seed=1)


class TestGreedyLocalSearch:
    def test_bipartite_cuts_every_edge(self):
        for g in (path_graph(8), cycle_graph(8)):
            result = greedy_local_search(g, seed=3, restarts=10)
            assert result.best_cut == g.m

    def test_k3(self):
        result = greedy_local_search(triangle(), seed=5)
        assert result.best_cut == 2

    def test_one_flip_optimal(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(5, 18)), 0.35, seed=int(rng.integers(0, 10**6)))
            result = greedy_local_search(g, seed=7, restarts=3)
            base = result.best_cut
            for pos in range(g.n):
                bits = list(result.best_assignment)
                bits[pos] = "1" if bits[pos] == "0" else "0"
                assert naive_cut_size(g, "".join(bits)) <= base

    def test_beats_random_search_usually(self):
        wins = 0
        trials = 10
        for i in range(trials):
            g = random_graph(20, 0.25, seed=100 + i)
            ls = greedy_local_search(g, seed=i, restarts=10)
            rs = random_search(g, budget=2000, seed=i)
            wins += ls.best_cut >= rs.best_cut
        assert wins >= 9

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_nodes=14), st.integers(0, 10**6), st.integers(1, 4))
    def test_matches_loop_oracle(self, g, seed, restarts):
        result = greedy_local_search(g, seed=seed, restarts=restarts)
        assert (result.best_assignment, result.best_cut, result.evaluations) == greedy_loop(
            g, seed, restarts
        )

    def test_matches_loop_oracle_on_chain(self):
        g = random_chain_graph(120, seed=4)
        result = greedy_local_search(g, seed=1, restarts=3)
        assert (result.best_assignment, result.best_cut, result.evaluations) == greedy_loop(
            g, 1, 3
        )

    def test_deterministic(self):
        g = random_graph(15, 0.3, seed=3)
        a = greedy_local_search(g, seed=2)
        b = greedy_local_search(g, seed=2)
        assert a.best_assignment == b.best_assignment

    def test_graph_without_nodes_is_refused(self):
        with pytest.raises(ValueError, match="^graph has no nodes$"):
            greedy_local_search(Graph.from_edges([]), seed=1)
