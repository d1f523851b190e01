import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dcqaoa import (
    AnsatzParams,
    Graph,
    SizeLimitError,
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
    _Circuit,
    _evolve,
    _expectation_of,
    apply_cost_phases,
    apply_mixer_layer,
    output_distribution,
)
from conftest import (
    build_initial_state,
    cold_draws,
    cold_optimize_params,
    complete_graph,
    cut_value_table,
    cycle_graph,
    final_state,
    float_cost_phases,
    full_evolve,
    full_expectation,
    full_state_qaoa,
    graphs,
    half_expectation,
    k2,
    loop_mixer_layer,
    mirrored,
    naive_cut_size,
    path_graph,
    per_call_cost_phases,
    per_call_evolve,
    per_call_mixer_layer,
    positions,
    qaoa_expectation,
    random_half,
    relabelings,
    scipy_nelder_mead,
    textbook_mixer_layer,
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


@functools.cache
def edgeless(n: int) -> Graph:
    """n nodes and no edge: its all-zero cut table makes its circuit's cost
    layer the identity, so the circuit serves a mixer on any n-qubit half."""
    return Graph.from_edges([], nodes=range(n))


def start_half(n: int) -> np.ndarray:
    return _Circuit(edgeless(n)).start


def cost_layer(half: np.ndarray, g: Graph, gamma: float) -> np.ndarray:
    """apply_cost_phases on a half state, on the circuit of g."""
    return apply_cost_phases(half, gamma, _Circuit(g))


def mixer_layer(half: np.ndarray, beta: float) -> np.ndarray:
    """apply_mixer_layer on a half state, on the circuit of an edgeless graph."""
    return apply_mixer_layer(half, beta, _Circuit(edgeless(len(half).bit_length())))


def evolve_from(half: np.ndarray, circuit: _Circuit, layers) -> np.ndarray:
    """The depth-p circuit from any half: both kernels on one circuit, cost
    then mixer per layer, as ``_evolve`` runs them from the start half."""
    for gamma, beta in layers:
        half = apply_mixer_layer(apply_cost_phases(half, gamma, circuit), beta, circuit)
    return half


def sample_at(g: Graph, params: AnsatzParams, shots: int, seed: int):
    """sample_solution_map from the output distribution of the angles on g."""
    return sample_solution_map(g, output_distribution(g, params), shots, seed)


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
        assert np.allclose(mirrored(start_half(1)), [1 / math.sqrt(2)] * 2)

    def test_two_qubits_uniform(self):
        assert np.allclose(mirrored(start_half(2)), [0.5] * 4)

    def test_norm(self):
        state = mirrored(start_half(3))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            _Circuit(edgeless(21))
        with pytest.raises(ValueError):
            _Circuit(edgeless(0))

    def test_start_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            start_half(3)[0] = 0.0


class TestCostLayer:
    def test_zero_angle_identity(self):
        half = start_half(3)
        assert np.allclose(cost_layer(half, triangle(), 0.0), half)

    def test_full_period_identity(self):
        half = start_half(3)
        out = cost_layer(half, triangle(), 2.0 * math.pi)
        assert np.allclose(out, half, atol=1e-12)

    def test_phase_only_keeps_probabilities(self):
        half = start_half(2)
        out = cost_layer(half, k2(), math.pi / 2)
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
        assert same_bits(cost_layer(half, g, gamma), expected[: len(half)])

    def test_circuit_holds_the_graph_table(self):
        # the kernels gather unchecked, by the graph's own int16 table
        g = random_graph(7, 0.5, seed=3)
        circuit = _Circuit(g)
        assert circuit.table.dtype == np.intp
        assert np.array_equal(circuit.table, g.cut_table)
        assert circuit.cut_range.tolist() == list(range(int(g.cut_table.max()) + 1))

    def test_table_of_another_size_is_refused(self):
        # another graph's half, and this graph's whole space, are both refused
        circuit = _Circuit(triangle())
        for half in (random_half(2, 1), mirrored(random_half(3, 1))):
            with pytest.raises(ValueError, match="broadcast"):
                apply_cost_phases(half, 0.3, circuit)


class TestMixerLayer:
    def test_zero_angle_identity(self):
        half = start_half(3)
        assert np.allclose(mixer_layer(half, 0.0), half)

    def test_half_pi_is_global_flip(self):
        # R_X(pi) on every qubit is (-i)^n X^n, and X^n fixes a symmetric state
        n = 4
        half = random_half(n, 5)
        out = mixer_layer(half, math.pi / 2)
        assert np.allclose(out, (-1j) ** n * half, atol=1e-12)

    def test_unitary_on_random_state(self):
        half = random_half(3, 12345)
        half /= np.linalg.norm(mirrored(half))
        out = mixer_layer(half, 0.37)
        assert abs(np.linalg.norm(mirrored(out)) - 1.0) < 1e-12

    def test_rejects_a_half_that_is_not_a_power_of_two(self):
        # no circuit has such a half, so it cannot match the circuit it is given
        circuit = _Circuit(edgeless(3))
        for size in (0, 3, 6):
            with pytest.raises(ValueError, match="broadcast"):
                apply_mixer_layer(np.ones(size, dtype=complex), 0.3, circuit)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), wide_angles, st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_bit_for_bit(self, n, beta, seed):
        half = random_half(n, seed)
        before = half.copy()
        expected = loop_mixer_layer(mirrored(half), beta)
        out = mixer_layer(half, beta)
        assert same_bits(out, expected[: len(half)])
        assert same_bits(mirrored(out), expected)
        assert same_bits(half, before)


def relative_error(ours: np.ndarray, expected: np.ndarray) -> float:
    """Largest amplitude error relative to the largest expected amplitude."""
    return float(np.max(np.abs(ours - expected)) / np.max(np.abs(expected)))


def boundary_examples(n: int):
    """@example decorators at the angles where the factored mixer switches
    form (|cos| = |sin|), at no rotation, and at the global flips."""
    quarter = math.pi / 4
    betas = [0.0, quarter, -quarter, 2 * quarter, -2 * quarter, 3 * quarter, math.pi]

    def decorate(test):
        for beta in betas:
            test = example(n=n, beta=beta, seed=n)(test)
        return test

    return decorate


class TestMixerPhysics:
    """The factored mixer against R_X(2*beta) written out as cos and sin, at a
    stated tolerance: both forms of the rotation and the switch between them."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16), st.floats(-2 * math.pi, 2 * math.pi), st.integers(0, 2**32 - 1))
    @boundary_examples(16)
    @boundary_examples(5)
    def test_matches_the_textbook_step(self, n, beta, seed):
        half = random_half(n, seed)
        assert relative_error(mixer_layer(half, beta), textbook_mixer_layer(half, beta)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.floats(-2 * math.pi, 2 * math.pi), st.integers(0, 2**32 - 1))
    @boundary_examples(8)
    @boundary_examples(3)
    def test_matches_the_dense_kronecker_product(self, n, beta, seed):
        c, s = math.cos(beta), -1j * math.sin(beta)
        rotation = np.ones((1, 1))
        for _ in range(n):
            rotation = np.kron(rotation, np.array([[c, s], [s, c]]))
        half = random_half(n, seed)
        expected = rotation @ mirrored(half)
        assert relative_error(mirrored(mixer_layer(half, beta)), expected) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_nodes=12), st.integers(0, 2**32 - 1))
    def test_expectation_matches_the_full_state(self, g, seed):
        half = random_half(g.n, seed)
        ours = _expectation_of(half, g.cut_table.astype(np.float64))
        expected = full_expectation(mirrored(half), cut_value_table(g))
        assert ours == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("beta", [math.pi / 4 - 1e-9, math.pi / 4 + 1e-9, math.pi / 2 - 1e-9])
    def test_norm_at_the_qubit_cap(self, beta):
        # by pi/4, |t| is near 1 and the amplitudes grow by up to 2^20 before
        # the scale; by pi/2 the flipped form runs
        half = random_half(qaoa.QUBIT_CAP, 20)
        half /= np.linalg.norm(half) * math.sqrt(2)
        circuit = _Circuit(edgeless(qaoa.QUBIT_CAP))
        for _ in range(3):
            half = apply_mixer_layer(half, beta, circuit)
            assert abs(np.linalg.norm(half) * math.sqrt(2) - 1.0) <= 1e-12


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
        ours = evolve_from(half, _Circuit(g), layers)
        assert same_bits(mirrored(ours), expected)
        weights = g.cut_table.astype(np.float64)
        assert _expectation_of(ours, weights) == half_expectation(
            expected[: len(ours)], g.cut_table
        )

    @all_qubits
    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=3))
    def test_matches_full_state_oracle_bit_for_bit(self, n, data, layers):
        g = data.draw(graphs_on(n))
        table = cut_value_table(g)
        expected = full_evolve(build_initial_state(n), table, layers)
        ours = _evolve(_Circuit(g), layers)
        assert same_bits(mirrored(ours), expected)
        weights = g.cut_table.astype(np.float64)
        assert _expectation_of(ours, weights) == half_expectation(
            expected[: len(ours)], g.cut_table
        )


class TestWorkspace:
    """One ``qaoa._Circuit`` reused across many calls, against the per-call kernels."""

    @all_qubits
    @settings(max_examples=20, deadline=None)
    @given(
        st.data(),
        st.lists(st.tuples(wide_angles, wide_angles), min_size=5, max_size=5),
        st.lists(
            st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_call_oracle_bit_for_bit(self, n, data, angles, runs, seed):
        g = data.draw(graphs_on(n))
        circuit = _Circuit(g)
        half = random_half(n, seed)
        before, start = half.copy(), circuit.start.copy()
        table, cut_range = circuit.table, circuit.cut_range
        # cost, mixer, mixer, cost, mixer starts a mixer in each buffer for every n
        ours, expected, starts = half, half, set()
        for kind, (gamma, beta) in zip("cmmcm", angles):
            if kind == "c":
                ours = apply_cost_phases(ours, gamma, circuit)
                expected = per_call_cost_phases(expected, table, cut_range, gamma)
            else:
                starts.add(ours is circuit.b)
                ours = apply_mixer_layer(ours, beta, circuit)
                expected = per_call_mixer_layer(expected, beta)
            assert same_bits(ours, expected)
        assert starts == {False, True}
        for layers in runs:
            ours = evolve_from(half, circuit, layers)
            assert same_bits(ours, per_call_evolve(half, g.cut_table, layers))
            ours = _evolve(circuit, layers)
            assert same_bits(ours, per_call_evolve(start, g.cut_table, layers))
        assert same_bits(half, before)
        assert same_bits(circuit.start, start)

    def test_successive_distributions_do_not_alias(self):
        g = random_graph(9, 0.5, seed=6)
        first = output_distribution(g, AnsatzParams(((0.7, 0.3),)))
        kept = first.copy()
        second = output_distribution(g, AnsatzParams(((1.9, 2.6),)))
        assert not np.shares_memory(first, second)
        assert same_bits(first, kept)


class TestKernelCalls:
    """The calls the benchmark's tracer counts: one per kernel per layer and
    objective evaluation, looked up on the module, on the 1-D half state."""

    @pytest.mark.parametrize("n, p", [(1, 1), (5, 2), (9, 3)])
    def test_one_call_per_layer_and_evaluation(self, monkeypatch, n, p):
        g = random_graph(n, 0.5, seed=n)
        calls = {"apply_mixer_layer": [], "apply_cost_phases": []}
        for name, record in calls.items():
            def recorded(half, *args, kernel=getattr(qaoa, name), record=record):
                record.append((half.ndim, half.shape))
                return kernel(half, *args)

            monkeypatch.setattr(qaoa, name, recorded)
        evaluations = []
        nelder_mead = qaoa._nelder_mead

        def counted_nelder_mead(fun, x0, budget):
            wrapped, seen = counted(fun)
            evaluations.append(seen)
            return nelder_mead(wrapped, x0, budget)

        monkeypatch.setattr(qaoa, "_nelder_mead", counted_nelder_mead)
        optimize_params(g, p, seed=3, budget=40, restarts=2)
        total = sum(map(len, evaluations))
        assert total > 0
        for record in calls.values():
            assert len(record) == p * total
            assert set(record) == {(1, (1 << (n - 1),))}


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


def counted(fun):
    """`fun` and a list that grows by one entry per call to it."""
    calls = []

    def wrapped(x):
        calls.append(None)
        return fun(x)

    return wrapped, calls


def leaf_objective(g, p):
    """The negated expected cut that ``optimize_params`` minimizes."""
    circuit, weights = _Circuit(g), g.cut_table.astype(np.float64)
    return lambda x: -_expectation_of(
        _evolve(circuit, [(x[2 * i], x[2 * i + 1]) for i in range(p)]), weights
    )


class TestNelderMead:
    """``qaoa._nelder_mead`` against scipy's Nelder-Mead, bit for bit and call for call."""

    @staticmethod
    def check(fun, x0, budget):
        ours, ours_calls = counted(fun)
        theirs, their_calls = counted(fun)
        x, value = qaoa._nelder_mead(ours, x0.copy(), budget)
        x_ref, value_ref = scipy_nelder_mead(theirs, x0.copy(), budget)
        assert x.view(np.uint64).tolist() == x_ref.view(np.uint64).tolist()
        assert np.float64(value).view(np.uint64) == np.float64(value_ref).view(np.uint64)
        assert len(ours_calls) == len(their_calls) <= budget

    @staticmethod
    def start(p, seed, zero):
        """A start drawn as ``optimize_params`` draws it, one coordinate zeroed if asked."""
        rng = np.random.default_rng(seed)
        x0 = np.empty(2 * p)
        x0[0::2] = rng.uniform(0.0, 2.0 * math.pi, size=p)
        x0[1::2] = rng.uniform(0.0, math.pi, size=p)
        if zero:
            x0[rng.integers(2 * p)] = 0.0
        return x0

    @pytest.mark.parametrize("p", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(
        graphs(max_nodes=6).filter(lambda g: g.edges),  # edgeless: see the constant objective
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_qaoa_objectives(self, p, g, budget, seed, zero):
        self.check(leaf_objective(g, p), self.start(p, seed, zero), budget)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @settings(max_examples=10, deadline=None)
    @given(graphs(max_nodes=6), st.integers(0, 2**32 - 1), st.booleans())
    def test_budget_ends_in_initial_simplex(self, p, g, seed, zero):
        for budget in range(1, 2 * p + 2):
            self.check(leaf_objective(g, p), self.start(p, seed, zero), budget)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["constant", "plateau", "max-abs"]),
        st.lists(
            st.sampled_from([0.0, -1.5, 0.25, 3.0]) | st.floats(-5.0, 5.0), min_size=1, max_size=6
        ),
        st.integers(1, 200),
    )
    @example("plateau", [3.0, 0.25], 28)  # an outside contraction ties its reflection
    @example("plateau", [0.25, 3.0, 3.0], 52)  # the budget ends in a shrink that found a new best
    def test_ties_and_plateaus(self, shape, x0, budget):
        fun = {
            "constant": lambda x: 1.0,  # every sort is a tie
            "plateau": lambda x: round(float(x @ x), 1),
            "max-abs": lambda x: float(np.max(np.abs(x))),
        }[shape]
        self.check(fun, np.array(x0), budget)

    @staticmethod
    def one_value_per_turn(fun, x0, budget, points):
        """A search driven as ``_nelder_mead`` drives it, pausing after each
        value it is sent; it records each point it is asked for and returns
        the search's result."""
        sim, fsim = qaoa._initial_simplex(x0)
        search = qaoa._simplex_search(sim, fsim)
        x = next(search)
        for _ in range(budget):
            points.append(bits(x))
            try:
                x = search.send(fun(x))
            except StopIteration:
                break
            yield
        search.close()
        return sim[0], float(np.min(fsim))

    def test_searches_in_lock_step_match_searches_alone(self):
        # the property that lets one batch evaluate the points of many searches
        searches = [  # in order: converges after 155 calls, spends its budget, ends in a shrink
            (leaf_objective(random_graph(5, 0.6, seed=2), 2), self.start(2, 7, False), 200),
            (leaf_objective(random_graph(7, 0.5, seed=5), 3), self.start(3, 8, True), 90),
            (lambda x: round(float(x @ x), 1), np.array([0.25, 3.0, 3.0]), 52),
        ]
        alone = []
        for fun, x0, budget in searches:
            points = []

            def recorded(x, fun=fun, points=points):
                points.append(bits(x))
                return fun(x)

            x, value = qaoa._nelder_mead(recorded, x0.copy(), budget)
            alone.append((points, bits(x), bits(value)))
        stepped = [[] for _ in searches]
        pending = {
            i: self.one_value_per_turn(fun, x0.copy(), budget, stepped[i])
            for i, (fun, x0, budget) in enumerate(searches)
        }
        results = {}
        while pending:
            for i, turns in list(pending.items()):
                try:
                    next(turns)
                except StopIteration as end:
                    results[i] = end.value
                    del pending[i]
        for i, (points, x, value) in enumerate(alone):
            assert len(stepped[i]) == len(points) <= searches[i][2]
            assert stepped[i] == points
            assert (bits(results[i][0]), bits(results[i][1])) == (x, value)

    @pytest.mark.parametrize("p", [1, 3])
    def test_optimize_params_through_scipy(self, monkeypatch, p):
        g = random_graph(5, 0.6, seed=2)
        ours = optimize_params(g, p, seed=13, budget=80, restarts=3)
        monkeypatch.setattr(qaoa, "_nelder_mead", scipy_nelder_mead)
        assert optimize_params(g, p, seed=13, budget=80, restarts=3) == ours


def bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def flat(params: AnsatzParams) -> list[float]:
    return [a for layer in params.layers for a in layer]


class RecordedRuns:
    """Wraps ``qaoa._nelder_mead``: per run, its start, the point of its
    first objective call and its result."""

    def __init__(self, monkeypatch):
        self.runs = []
        real = qaoa._nelder_mead

        def recorded(fun, x0, budget):
            run = {"x0": np.array(x0)}
            self.runs.append(run)

            def fun_first(x):
                run.setdefault("first_call", np.array(x))
                return fun(x)

            run["result"] = real(fun_first, x0, budget)
            return run["result"]

        monkeypatch.setattr(qaoa, "_nelder_mead", recorded)


class TestWarmStart:
    """``optimize_params`` with and without a warm start."""

    @settings(max_examples=40, deadline=None)
    @given(
        graphs(max_nodes=9).filter(lambda g: g.n >= 2),
        st.integers(1, 3),
        st.integers(1, 80),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_cold_search_is_unchanged(self, g, p, budget, restarts, seed):
        params, value = optimize_params(g, p, seed, budget, restarts, start=None)
        want_params, want_value = cold_optimize_params(g, p, seed, budget, restarts)
        assert bits(flat(params)) == bits(flat(want_params))
        assert bits(value) == bits(want_value)

    @staticmethod
    def donor(p):
        """Angles and expectation ratio of another 7-node graph."""
        g = random_graph(7, 0.5, seed=21)
        params, value = optimize_params(g, p, seed=4, budget=60, restarts=2)
        return params, value / int(g.cut_table.max())

    graph = random_graph(7, 0.5, seed=5)

    @pytest.mark.parametrize("p", [1, 3])
    def test_first_call_is_at_the_donor_angles(self, monkeypatch, p):
        angles, ratio = self.donor(p)
        recorded = RecordedRuns(monkeypatch)
        optimize_params(self.graph, p, seed=8, budget=60, restarts=2, start=(angles, ratio))
        first = recorded.runs[0]
        assert bits(first["x0"]) == bits(flat(angles))
        assert bits(first["first_call"]) == bits(flat(angles))

    @pytest.mark.parametrize("p", [1, 3])
    def test_a_start_within_the_slack_ends_the_search(self, monkeypatch, p):
        angles, _ = self.donor(p)
        reached = RecordedRuns(monkeypatch)
        optimize_params(self.graph, p, seed=8, budget=60, restarts=3, start=(angles, 2.0))
        x, low = reached.runs[0]["result"]
        achieved = -low / int(self.graph.cut_table.max())
        for ratio in (0.0, achieved, achieved + qaoa._WARM_SLACK - 1e-9):
            recorded = RecordedRuns(monkeypatch)
            params, value = optimize_params(
                self.graph, p, seed=8, budget=60, restarts=3, start=(angles, ratio)
            )
            assert len(recorded.runs) == 1
            assert bits(flat(params)) == bits(x)
            assert bits(value) == bits(-low)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("restarts", [1, 2, 4])
    def test_a_start_short_of_the_slack_runs_the_cold_draws(self, monkeypatch, p, restarts):
        angles, _ = self.donor(p)
        reached = RecordedRuns(monkeypatch)
        optimize_params(self.graph, p, seed=8, budget=60, restarts=1, start=(angles, 2.0))
        achieved = reached.runs[0]["result"][1] / -int(self.graph.cut_table.max())
        for ratio in (2.0, achieved + qaoa._WARM_SLACK + 1e-9):
            recorded = RecordedRuns(monkeypatch)
            params, value = optimize_params(
                self.graph, p, seed=8, budget=60, restarts=restarts, start=(angles, ratio)
            )
            starts = [run["x0"] for run in recorded.runs]
            assert bits(starts[0]) == bits(flat(angles))
            assert [bits(x) for x in starts[1:]] == [
                bits(x) for x in cold_draws(p, 8, restarts - 1)
            ]
            # the best run wins, the earliest on ties
            lows = [run["result"][1] for run in recorded.runs]
            best = recorded.runs[lows.index(min(lows))]["result"]
            assert bits(flat(params)) == bits(best[0])
            assert bits(value) == bits(-best[1])

    def test_start_of_another_depth_is_refused(self):
        angles, ratio = self.donor(1)
        with pytest.raises(ValueError):
            optimize_params(self.graph, 2, seed=8, start=(angles, ratio))


class TestSampling:
    def test_shot_conservation(self):
        params, _ = optimize_params(triangle(), p=2, seed=5)
        m = sample_at(triangle(), params, shots=1000, seed=6)
        assert m.total() == 1000

    def test_k2_optimum_concentrates(self):
        params, _ = optimize_params(k2(), p=1, seed=11)
        m = sample_at(k2(), params, shots=1000, seed=3)
        assert set(m.counts) <= {"01", "10"}

    def test_shot_limits(self):
        params = AnsatzParams(((0.7, 0.3),))
        most = sample_at(triangle(), params, shots=2**63 - 1, seed=6)
        assert most.total() == 2**63 - 1
        for shots in (0, 2**63):
            with pytest.raises(ValueError):
                sample_at(triangle(), params, shots=shots, seed=6)

    def test_deterministic(self):
        params, _ = optimize_params(triangle(), p=1, seed=5)
        a = sample_at(triangle(), params, shots=500, seed=17)
        b = sample_at(triangle(), params, shots=500, seed=17)
        assert list(a.counts.items()) == list(b.counts.items())

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=9), st.integers(0, 10**6), st.integers(1, 3000))
    def test_matches_format_loop_construction(self, g, seed, shots):
        params = AnsatzParams(((0.7, 0.3), (1.9, 2.6)))
        probs = np.abs(final_state(g, params)) ** 2
        probs /= probs.sum()
        draws = np.random.default_rng(seed).multinomial(shots, probs)
        counts = {format(int(b), f"0{g.n}b"): int(draws[b]) for b in np.nonzero(draws)[0]}
        m = sample_at(g, params, shots, seed)
        assert m.nodes == g.nodes
        assert m.counts == counts

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_nodes=9), st.integers(0, 10**6))
    def test_rows_carry_their_cuts(self, g, seed):
        # drawn indices of both halves, the upper one read off the complement
        params = AnsatzParams(((0.7, 0.3), (1.9, 2.6)))
        m = sample_at(g, params, 3000, seed)
        assert m.cuts.dtype == np.int64
        assert m.cuts.tolist() == cut_values(g, m.rows).tolist()

    def test_distribution_of_another_shape_is_refused(self):
        g = random_graph(4, 0.6, seed=1)
        # unchecked, length 32 indexes past the cut table and length 8 draws only bit-0 = 0 rows
        for shape in (32, 8, (16, 1)):
            probs = np.full(shape, 1.0 / np.prod(shape))
            with pytest.raises(ValueError, match="shape"):
                sample_solution_map(g, probs, 100, seed=1)

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
        m = sample_at(g, params, shots=100_000, seed=30)
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

        def recorded_evolve(circuit, layers, evolve=qaoa._evolve):
            seen.append(circuit)
            return evolve(circuit, layers)

        monkeypatch.setattr(dcgraphs, "cut_values", counted_cut_values)
        monkeypatch.setattr(qaoa, "_evolve", recorded_evolve)
        params, _ = optimize_params(g, p=2, seed=1, budget=10, restarts=2)
        sample_at(g, params, shots=100, seed=2)
        assert built == [g]
        # one circuit for the optimizer's runs and one for the distribution
        circuits = list({id(circuit): circuit for circuit in seen}.values())
        assert len(seen) > 2 and circuits == [seen[0], seen[-1]]
        assert all(np.array_equal(circuit.table, g.cut_table) for circuit in circuits)

    def test_leaf_over_the_qubit_cap_fails_before_any_table(self):
        g = path_graph(21)
        params = AnsatzParams(((0.7, 0.3),))
        with pytest.raises(SizeLimitError, match="simulator cap of 20"):
            optimize_params(g, p=1, seed=1)
        with pytest.raises(SizeLimitError, match="simulator cap of 20"):
            output_distribution(g, params)
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
        ours = sample_at(g, params, shots, seed)
        with full_state_qaoa():
            expected = sample_at(g, params, shots, seed)
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
        assert ours[1] == half_expectation(final[: len(g.cut_table)], g.cut_table)
        assert ours[1] == pytest.approx(full_expectation(final, table), rel=1e-12, abs=1e-12)
        ours = sample_at(g, params, shots=5000, seed=4)
        with full_state_qaoa():
            expected = sample_at(g, params, shots=5000, seed=4)
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
