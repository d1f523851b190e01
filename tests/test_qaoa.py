import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dcqaoa import (
    AnsatzParams,
    Graph,
    SizeLimitError,
    apply_mixer_layer,
    expectation_value,
    optimize_params,
    qaoa_maxcut,
    random_graph,
    sample_solution_map,
)
import dcqaoa.graphs as dcgraphs
import dcqaoa.qaoa as qaoa
from dcqaoa.graphs import cut_values
from dcqaoa.qaoa import (
    _evolve,
    _expectation_of,
    _initial_half,
    apply_cost_phases,
    output_distribution,
)
from conftest import (
    build_initial_state,
    complete_graph,
    cut_value_table,
    cycle_graph,
    final_state,
    float_cost_phases,
    full_evolve,
    full_expectation,
    full_state_qaoa,
    graphs,
    k2,
    loop_mixer_layer,
    mirrored,
    naive_cut_size,
    path_graph,
    positions,
    qaoa_expectation,
    random_half,
    relabelings,
    toy_graph,
    triangle,
)


def dense_final_state(g, layers):
    """Independent dense-matrix QAOA evolution on the full 2^n-dimensional space.

    C = sum over edges of (I - Z_u Z_v) / 2 and B = sum_j X_j are built with
    np.kron (qubit 0, the smallest node, is the leftmost factor), and each
    layer applies expm(-i*beta*B) @ expm(-i*gamma*C).
    """
    n = g.n
    pauli_z = np.diag([1.0, -1.0])
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])

    def on_qubit(op, j):
        out = np.ones((1, 1))
        for q in range(n):
            out = np.kron(out, op if q == j else np.eye(2))
        return out

    pos = positions(g)
    identity = np.eye(1 << n)
    cost = sum(
        (identity - on_qubit(pauli_z, pos[u]) @ on_qubit(pauli_z, pos[v])) / 2
        for u, v in g.edges
    )
    mixer = sum(on_qubit(pauli_x, j) for j in range(n))
    state = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    for gamma, beta in layers:
        state = expm(-1j * beta * mixer) @ (expm(-1j * gamma * cost) @ state)
    return state, np.real(np.diag(cost))


def closed_form_p1_expectation(g, gamma, beta):
    """Analytic depth-1 MaxCut expectation (Wang et al., arXiv:1706.02998).

    Per edge (u, v) with d = deg(u) - 1, e = deg(v) - 1 and f common
    neighbours (triangles through the edge):
    1/2 + 1/4 sin(4b) sin(g) (cos^d g + cos^e g)
        - 1/4 sin^2(2b) cos^(d+e-2f) g (1 - cos^f 2g).
    """
    adj = {v: set(nb) for v, nb in g.adjacency.items()}
    total = 0.0
    for u, v in g.edges:
        d = len(adj[u]) - 1
        e = len(adj[v]) - 1
        f = len(adj[u] & adj[v])
        total += (
            0.5
            + 0.25 * math.sin(4 * beta) * math.sin(gamma)
            * (math.cos(gamma) ** d + math.cos(gamma) ** e)
            - 0.25 * math.sin(2 * beta) ** 2 * math.cos(gamma) ** (d + e - 2 * f)
            * (1 - math.cos(2 * gamma) ** f)
        )
    return total


def grid_best(g, steps=100):
    best = -1.0
    for gamma in np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False):
        for beta in np.linspace(0.0, math.pi, steps, endpoint=False):
            val = qaoa_expectation(g, AnsatzParams(((gamma, beta),)))
            if val > best:
                best = val
    return best


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal float64 components (signed zeros compare equal)."""
    return a.shape == b.shape and np.array_equal(a.view(np.float64), b.view(np.float64))


def cost_layer(half: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """apply_cost_phases on a half state, given its half cut table."""
    cut_range = np.arange(table.max() + 1, dtype=np.float64)
    return apply_cost_phases(half, table, cut_range, gamma)


wide_angles = st.floats(-20.0, 20.0)
# every n from 1 to 16, the leaf size CI solves through the entry point
all_qubits = pytest.mark.parametrize("n", range(1, 17))


@st.composite
def graphs_on(draw, n: int):
    """Simple graphs on the nodes 0..n-1."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(edges, nodes=range(n))


class TestInitialState:
    def test_one_qubit(self):
        assert np.allclose(mirrored(_initial_half(1)), [1 / math.sqrt(2)] * 2)

    def test_two_qubits_uniform(self):
        assert np.allclose(mirrored(_initial_half(2)), [0.5] * 4)

    def test_norm(self):
        state = mirrored(_initial_half(3))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            _initial_half(21)
        with pytest.raises(ValueError):
            _initial_half(0)


class TestCostLayer:
    def test_zero_angle_identity(self):
        half = _initial_half(3)
        assert np.allclose(cost_layer(half, triangle().cut_table, 0.0), half)

    def test_full_period_identity(self):
        half = _initial_half(3)
        out = cost_layer(half, triangle().cut_table, 2.0 * math.pi)
        assert np.allclose(out, half, atol=1e-12)

    def test_phase_only_keeps_probabilities(self):
        half = _initial_half(2)
        out = cost_layer(half, k2().cut_table, math.pi / 2)
        assert np.allclose(np.abs(out) ** 2, np.abs(half) ** 2)

    def test_table_matches_cut_size(self):
        g = random_graph(6, 0.5, seed=3)
        table = mirrored(g.cut_table)
        for b in range(1 << 6):
            assert table[b] == naive_cut_size(g, format(b, "06b"))

    def test_table_is_integer(self):
        assert triangle().cut_table.dtype == np.int16

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_nodes=10), wide_angles, st.integers(0, 2**32 - 1))
    def test_matches_float_table_oracle_bit_for_bit(self, g, gamma, seed):
        table = cut_value_table(g)
        half = random_half(g.n, seed)
        expected = float_cost_phases(mirrored(half), table, gamma)
        assert same_bits(cost_layer(half, g.cut_table, gamma), expected[: len(half)])

    # the circuit checks its cut table once, before the first cost layer
    def test_float_table_is_refused(self):
        table = triangle().cut_table.astype(np.float64)
        with pytest.raises(ValueError, match="integer dtype"):
            _evolve(_initial_half(3), table, [(0.3, 0.2)])

    def test_negative_entry_is_refused(self):
        table = triangle().cut_table.copy()
        table[3] = -1
        with pytest.raises(ValueError, match="negative"):
            _evolve(_initial_half(3), table, [(0.3, 0.2)])

    def test_table_of_another_size_is_refused(self):
        # another graph's half, and this graph's whole space, are both refused
        for table in (k2().cut_table, cut_value_table(triangle())):
            with pytest.raises(ValueError, match="dimensions differ"):
                _evolve(_initial_half(3), table, [(0.3, 0.2)])


class TestMixerLayer:
    def test_zero_angle_identity(self):
        half = _initial_half(3)
        assert np.allclose(apply_mixer_layer(half, 0.0), half)

    def test_half_pi_is_global_flip(self):
        # R_X(pi) on every qubit is (-i)^n X^n, and X^n fixes a symmetric state
        n = 4
        half = random_half(n, 5)
        out = apply_mixer_layer(half, math.pi / 2)
        assert np.allclose(out, (-1j) ** n * half, atol=1e-12)

    def test_unitary_on_random_state(self):
        half = random_half(3, 12345)
        half /= np.linalg.norm(mirrored(half))
        out = apply_mixer_layer(half, 0.37)
        assert abs(np.linalg.norm(mirrored(out)) - 1.0) < 1e-12

    def test_rejects_a_half_that_is_not_a_power_of_two(self):
        for size in (0, 3, 6):
            with pytest.raises(ValueError, match="power of two"):
                apply_mixer_layer(np.ones(size, dtype=complex), 0.3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), wide_angles, st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_bit_for_bit(self, n, beta, seed):
        half = random_half(n, seed)
        before = half.copy()
        expected = loop_mixer_layer(mirrored(half), beta)
        out = apply_mixer_layer(half, beta)
        assert same_bits(out, expected[: len(half)])
        assert same_bits(mirrored(out), expected)
        assert same_bits(half, before)


angles = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, math.pi))


class TestEvolution:
    @settings(max_examples=100, deadline=None)
    @given(
        graphs(max_nodes=10),
        st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_kernels_bit_for_bit(self, g, layers, seed):
        table = cut_value_table(g)
        half = random_half(g.n, seed)
        expected = mirrored(half)
        for gamma, beta in layers:
            expected = loop_mixer_layer(float_cost_phases(expected, table, gamma), beta)
        ours = _evolve(half, g.cut_table, layers)
        assert same_bits(mirrored(ours), expected)
        assert _expectation_of(ours, g.cut_table) == full_expectation(
            expected, table.astype(np.float64)
        )

    @all_qubits
    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=3))
    def test_matches_full_state_oracle_bit_for_bit(self, n, data, layers):
        g = data.draw(graphs_on(n))
        table = cut_value_table(g)
        expected = full_evolve(build_initial_state(n), table, layers)
        ours = _evolve(_initial_half(n), g.cut_table, layers)
        assert same_bits(mirrored(ours), expected)
        assert _expectation_of(ours, g.cut_table) == full_expectation(expected, table)


class TestExpectation:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.lists(angles, min_size=1, max_size=3))
    def test_invariant_under_relabeling(self, data, layers):
        # the property that lets isomorphic leaves share optimized angles
        g = data.draw(graphs())
        h = data.draw(relabelings(g))
        params = AnsatzParams(tuple(layers))
        assert abs(qaoa_expectation(h, params) - qaoa_expectation(g, params)) <= 1e-12

    def test_zero_angles_half_edges(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(2, 10)), 0.5, seed=int(rng.integers(0, 10**6)))
            params = AnsatzParams(((0.0, 0.0), (0.0, 0.0)))
            assert qaoa_expectation(g, params) == pytest.approx(g.m / 2, abs=1e-12)

    def test_k2_matches_dense_matrix(self, rng):
        for _ in range(20):
            gamma = float(rng.uniform(0, 2 * math.pi))
            beta = float(rng.uniform(0, math.pi))
            ours = qaoa_expectation(k2(), AnsatzParams(((gamma, beta),)))
            dense, cuts = dense_final_state(k2(), ((gamma, beta),))
            assert ours == pytest.approx(float(np.abs(dense) ** 2 @ cuts), abs=1e-9)

    def test_toy_graph_depth_three_matches_dense_expm(self, rng):
        g = toy_graph()
        for _ in range(5):
            layers = tuple(
                (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, math.pi)))
                for _ in range(3)
            )
            dense, cuts = dense_final_state(g, layers)
            assert np.array_equal(cuts, mirrored(g.cut_table))
            ours = final_state(g, AnsatzParams(layers))
            dense_probs = np.abs(dense) ** 2
            assert np.max(np.abs(np.abs(ours) ** 2 - dense_probs)) < 1e-12
            assert qaoa_expectation(g, AnsatzParams(layers)) == pytest.approx(
                float(dense_probs @ cuts), abs=1e-12
            )

    def test_depth_one_matches_closed_form(self, rng):
        graphs = [toy_graph(), triangle(), cycle_graph(5)] + [
            random_graph(n, 0.5, seed=40 + n) for n in range(4, 9)
        ]
        for g in graphs:
            for _ in range(5):
                gamma = float(rng.uniform(0, 2 * math.pi))
                beta = float(rng.uniform(0, math.pi))
                ours = qaoa_expectation(g, AnsatzParams(((gamma, beta),)))
                assert ours == pytest.approx(
                    closed_form_p1_expectation(g, gamma, beta), abs=1e-12
                )

    def test_k2_depth_one_reaches_optimum(self):
        params, value = optimize_params(k2(), p=1, seed=11)
        assert value >= 0.99
        assert value <= grid_best(k2(), steps=60) + 0.01

    def test_triangle_depth_one_band(self):
        _, value = optimize_params(triangle(), p=1, seed=11)
        oracle = grid_best(triangle(), steps=100)
        assert 1.5 < value <= 2.0
        assert value >= oracle - 0.02

    def test_monotone_depth_on_fixed_instance(self):
        g = cycle_graph(6)
        _, shallow = optimize_params(g, p=1, seed=4, restarts=5)
        _, deep = optimize_params(g, p=2, seed=4, restarts=5)
        assert deep >= shallow - 1e-6

    def test_norm_preserved_through_deep_circuit(self, rng):
        g = random_graph(6, 0.5, seed=9)
        layers = tuple(
            (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, math.pi)))
            for _ in range(8)
        )
        state = final_state(g, AnsatzParams(layers))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


class TestOptimizer:
    def test_deterministic(self):
        g = random_graph(5, 0.6, seed=2)
        first = optimize_params(g, p=2, seed=13, budget=80, restarts=3)
        second = optimize_params(g, p=2, seed=13, budget=80, restarts=3)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_budget_one_returns_initial_point(self):
        params, value = optimize_params(triangle(), p=1, seed=3, budget=1, restarts=2)
        assert params.p == 1
        assert 0.0 <= value <= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_params(k2(), p=0, seed=1)
        with pytest.raises(ValueError):
            optimize_params(k2(), p=1, seed=1, budget=0)


class TestSampling:
    def test_shot_conservation(self):
        params, _ = optimize_params(triangle(), p=2, seed=5)
        m = sample_solution_map(triangle(), params, shots=1000, seed=6)
        assert m.total() == 1000

    def test_k2_optimum_concentrates(self):
        params, _ = optimize_params(k2(), p=1, seed=11)
        m = sample_solution_map(k2(), params, shots=1000, seed=3)
        assert set(m.counts) <= {"01", "10"}

    def test_shot_limits(self):
        params = AnsatzParams(((0.7, 0.3),))
        most = sample_solution_map(triangle(), params, shots=2**63 - 1, seed=6)
        assert most.total() == 2**63 - 1
        for shots in (0, 2**63):
            with pytest.raises(ValueError):
                sample_solution_map(triangle(), params, shots=shots, seed=6)

    def test_deterministic(self):
        params, _ = optimize_params(triangle(), p=1, seed=5)
        a = sample_solution_map(triangle(), params, shots=500, seed=17)
        b = sample_solution_map(triangle(), params, shots=500, seed=17)
        assert list(a.counts.items()) == list(b.counts.items())

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=9), st.integers(0, 10**6), st.integers(1, 3000))
    def test_matches_format_loop_construction(self, g, seed, shots):
        params = AnsatzParams(((0.7, 0.3), (1.9, 2.6)))
        probs = np.abs(final_state(g, params)) ** 2
        probs /= probs.sum()
        draws = np.random.default_rng(seed).multinomial(shots, probs)
        counts = {format(int(b), f"0{g.n}b"): int(draws[b]) for b in np.nonzero(draws)[0]}
        m = sample_solution_map(g, params, shots, seed)
        assert m.nodes == g.nodes
        assert m.counts == counts

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=9), st.integers(0, 10**6))
    def test_rows_carry_their_cuts(self, g, seed):
        # drawn indices of both halves, the upper one read off the complement
        params = AnsatzParams(((0.7, 0.3), (1.9, 2.6)))
        m = sample_solution_map(g, params, 3000, seed)
        assert m.cuts.dtype == np.int64
        assert m.cuts.tolist() == cut_values(g, m.rows).tolist()

    def test_precomputed_distribution_gives_the_same_draw(self):
        g = random_graph(7, 0.5, seed=3)
        params = AnsatzParams(((0.7, 0.3), (1.9, 2.6)))
        probs = output_distribution(g, params)
        assert probs.shape == (1 << g.n,) and probs.sum() == pytest.approx(1.0)
        ours = sample_solution_map(g, params, 500, seed=9, probs=probs)
        fresh = sample_solution_map(g, params, 500, seed=9)
        assert list(ours.counts.items()) == list(fresh.counts.items())
        assert ours.cuts.tolist() == fresh.cuts.tolist()

    def test_complement_symmetry_of_distribution(self, rng):
        # the symmetry the half-state simulator rests on, shown on full states
        g = random_graph(6, 0.5, seed=21)
        layers = tuple(
            (float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, math.pi)))
            for _ in range(3)
        )
        state = full_evolve(build_initial_state(g.n), cut_value_table(g), layers)
        probs = np.abs(state) ** 2
        flipped = probs[::-1]  # basis index complement is bit reversal of 2^n-1-b
        assert np.max(np.abs(probs - flipped)) < 1e-9

    def test_sampling_consistency_with_exact_expectation(self):
        g = random_graph(6, 0.5, seed=21)
        params, value = optimize_params(g, p=2, seed=8)
        m = sample_solution_map(g, params, shots=100_000, seed=30)
        table = cut_value_table(g)
        state = final_state(g, params)
        probs = np.abs(state) ** 2
        probs /= probs.sum()
        variance = float(probs @ (table - value) ** 2)
        tolerance = 3.0 * math.sqrt(variance / 100_000)
        assert expectation_value(g, m) == pytest.approx(value, abs=max(tolerance, 1e-3))


class TestLeafCutTable:
    def test_optimizer_and_sampler_build_one_table(self, monkeypatch):
        g = random_graph(8, 0.5, seed=4)
        built, seen = [], []

        def counted_cut_values(graph, rows, cut_values=dcgraphs.cut_values):
            built.append(graph)
            return cut_values(graph, rows)

        def recorded_evolve(half, table, layers, evolve=qaoa._evolve):
            seen.append(table)
            return evolve(half, table, layers)

        monkeypatch.setattr(dcgraphs, "cut_values", counted_cut_values)
        monkeypatch.setattr(qaoa, "_evolve", recorded_evolve)
        params, _ = optimize_params(g, p=2, seed=1, budget=10, restarts=2)
        sample_solution_map(g, params, shots=100, seed=2)
        assert built == [g]
        assert len(seen) > 2 and all(table is g.cut_table for table in seen)

    def test_leaf_over_the_qubit_cap_fails_before_any_table(self):
        g = path_graph(21)
        params = AnsatzParams(((0.7, 0.3),))
        with pytest.raises(SizeLimitError, match="simulator cap of 20"):
            optimize_params(g, p=1, seed=1)
        with pytest.raises(SizeLimitError, match="simulator cap of 20"):
            sample_solution_map(g, params, shots=10, seed=1)
        assert "cut_table" not in vars(g)


class TestAgainstFullStateRun:
    """The optimizer and the sampler against the same calls run on full states."""

    @all_qubits
    @settings(max_examples=12, deadline=None)
    @given(
        st.data(),
        st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
        st.integers(1, 10**6),
    )
    def test_sampling_matches_bit_for_bit(self, n, data, layers, seed, shots):
        g = data.draw(graphs_on(n))
        params = AnsatzParams(tuple(layers))
        ours = sample_solution_map(g, params, shots, seed)
        with full_state_qaoa():
            expected = sample_solution_map(g, params, shots, seed)
        assert np.array_equal(ours.rows, expected.rows)
        assert ours.row_counts == expected.row_counts

    @pytest.mark.parametrize("edges", [[], [(0, 1)]], ids=["no-edge", "K2"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_two_qubits(self, edges, p):
        self.check_leaf(Graph.from_edges(edges, nodes=[0, 1]), p)

    @pytest.mark.parametrize("p", [1, 3])
    def test_one_qubit(self, p):
        self.check_leaf(Graph.from_edges([], nodes=[7]), p)

    def test_fourteen_qubits(self):
        self.check_leaf(random_graph(14, 0.4, seed=3), 2, budget=20)

    @staticmethod
    def check_leaf(g, p, budget=60):
        ours = optimize_params(g, p, seed=9, budget=budget, restarts=2)
        with full_state_qaoa():
            expected = optimize_params(g, p, seed=9, budget=budget, restarts=2)
        assert ours == expected
        params = ours[0]
        table = cut_value_table(g)
        final = full_evolve(build_initial_state(g.n), table, params.layers)
        assert ours[1] == full_expectation(final, table)
        ours = sample_solution_map(g, params, shots=5000, seed=4)
        with full_state_qaoa():
            expected = sample_solution_map(g, params, shots=5000, seed=4)
        assert np.array_equal(ours.rows, expected.rows)
        assert ours.row_counts == expected.row_counts


class TestQaoaMaxcut:
    def test_k2_dominated_by_optima(self):
        m = qaoa_maxcut(k2(), p=1, shots=1000, seed=2)
        top = sorted(m.counts, key=m.counts.__getitem__, reverse=True)[:2]
        assert set(top) == {"01", "10"}
        assert sum(m.counts[a] for a in top) >= 990

    def test_single_node_graph(self):
        g = random_graph(1, 0.5, seed=7)
        m = qaoa_maxcut(g, p=1, shots=200, seed=4)
        assert set(m.counts) <= {"0", "1"}
        assert m.total() == 200
        assert expectation_value(g, m) == 0.0

    def test_triangle_depth_three_hits_optimum(self):
        m = qaoa_maxcut(triangle(), p=3, shots=1000, seed=3)
        assert max(naive_cut_size(triangle(), a) for a in m.counts) == 2


def test_ansatz_params_validation():
    with pytest.raises(ValueError):
        AnsatzParams(())
    with pytest.raises(ValueError):
        AnsatzParams(((float("nan"), 0.0),))
    p = AnsatzParams.from_flat([0.1, 0.2, 0.3, 0.4])
    assert p.layers == ((0.1, 0.2), (0.3, 0.4))
