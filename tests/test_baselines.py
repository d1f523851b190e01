import sys
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
from dcqaoa.graphs import column_cuts, cut_values
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
    raw_coin_blocks,
    run_fresh,
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


def one_shot_random_search(g, budget, seed, block=4096):
    """(assignment, cut) of the first best of `budget` rows whose blocks' words
    come from one random_raw call: the oracle for the blocked draw in
    random_search, which draws one block at a time."""
    blocks = -(-budget // block)
    words = np.random.default_rng(seed).bit_generator.random_raw(blocks * (g.n - 1) * (block // 64))
    packed = words.astype("<u8").view(np.uint8).reshape(blocks, g.n - 1, block // 8)
    bits = np.unpackbits(packed, axis=2, bitorder="little")
    rows = np.zeros((blocks, block, g.n), dtype=np.uint8)
    rows[:, :, 1:] = bits.transpose(0, 2, 1)
    rows = rows.reshape(-1, g.n)[:budget]
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
        # the blocked oracle's own premise: blocks of `block` words per node
        # continue one draw of every word; 64 * budget - 1 rows end mid-word
        # and, past 64 * block rows, span blocks
        g = random_graph(n, 0.6, seed=n)
        rows = 64 * budget - 1
        assert blocked_random_search(g, rows, budget + n, 64 * block) == one_shot_random_search(
            g, rows, budget + n, 64 * block
        )

    @pytest.mark.parametrize("block", [64, 128, 192])
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 10])
    @pytest.mark.parametrize("budget", [1, 5, 13, 30, 101])
    def test_packed_blocks_match_one_shot_oracle(self, monkeypatch, block, n, budget):
        g = random_graph(n, 0.6, seed=n)
        monkeypatch.setattr(baselines, "_SEARCH_BLOCK_ROWS", block)
        result = random_search(g, budget=budget, seed=budget + n)
        assert (result.best_assignment, result.best_cut) == one_shot_random_search(
            g, budget, budget + n, block
        )
        assert result.evaluations == budget

    def test_default_blocks_match_one_shot_oracle(self):
        # 33 coins per row; with this seed the first best row lies in the second block
        g = random_chain_graph(34, seed=2)
        budget = 2 * baselines._SEARCH_BLOCK_ROWS + 7
        result = random_search(g, budget=budget, seed=0)
        expected = one_shot_random_search(g, budget, 0)
        assert (result.best_assignment, result.best_cut) == expected
        first_block = one_shot_random_search(g, baselines._SEARCH_BLOCK_ROWS, 0)
        assert first_block[1] < expected[1]

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
    def test_coins_follow_raw_stream(self, monkeypatch, count, seed):
        # on one free node, row i's coin is bit i % 64 of raw word i // 64 of
        # its block, and every block draws all of its 64 words
        seen = []

        def spy(g, columns, r):
            seen.append((columns.copy(), r))
            return column_cuts(g, columns, r)

        monkeypatch.setattr(baselines, "column_cuts", spy)
        random_search(k2(), budget=count, seed=seed)
        blocks = -(-count // 4096)
        assert [r for _, r in seen] == [min(4096, count - lo) for lo in range(0, count, 4096)]
        raw = np.random.default_rng(seed).bit_generator.random_raw(64 * blocks)
        assert np.array_equal(
            np.concatenate([columns[1] for columns, _ in seen]),
            raw.astype("<u8").view(np.uint8),
        )
        assert not any(columns[0].any() for columns, _ in seen)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 63, 64, 65, 1000])
    def test_packed_cuts_match_cut_values(self, m):
        # 256 rows whose columns are raw words, as random_search packs them
        n = 50
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = np.random.default_rng(m).choice(len(pairs), size=m, replace=False)
        g = Graph.from_edges([pairs[i] for i in picks], nodes=range(n))
        rows = next(raw_coin_blocks(n, m, block=256))
        columns = np.zeros((n, 32), dtype=np.uint8)
        columns[1:] = np.packbits(rows[:, 1:].T, axis=1, bitorder="little")
        words = np.random.default_rng(m).bit_generator.random_raw(4 * (n - 1))
        assert np.array_equal(columns[1:].ravel(), words.astype("<u8").view(np.uint8))
        cuts = column_cuts(g, columns, 256)
        assert np.array_equal(cuts, gathered_cut_values(g, rows))
        assert np.array_equal(cuts, cut_values(g, rows))

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc's mmap threshold and ru_minflt")
    def test_blocks_take_no_page_faults(self):
        # a fresh interpreter fixes the allocator's history; a search whose
        # chunks were fresh mappings faults in and zeroes each one (about
        # 27,000 faults here with 1 MiB chunks, about 160 with 64 KiB ones)
        code = (
            "import resource\n"
            "from dcqaoa import random_chain_graph, random_search\n"
            "g = random_chain_graph(512, 1)\n"
            "random_search(g, 20_000, 0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "random_search(g, 200_000, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_fresh(code)) <= 2000

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
        # a smaller budget scores a prefix of a larger one's rows, so each result
        # is the first best among that many rows of the largest budget's stream
        g = random_graph(14, 0.3, seed=6)
        budgets = (50, 100, 200, 400, 4095, 4097, 5000)
        blocks = raw_coin_blocks(g.n, 11)
        rows = np.concatenate([next(blocks), next(blocks)])[: budgets[-1]]
        cuts = gathered_cut_values(g, rows)
        for budget in budgets:
            result = random_search(g, budget=budget, seed=11)
            best = int(np.argmax(cuts[:budget]))
            expected = ("".join(str(b) for b in rows[best]), int(cuts[best]))
            assert (result.best_assignment, result.best_cut) == expected

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
