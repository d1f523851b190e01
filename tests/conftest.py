import math
from contextlib import contextmanager
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from dcqaoa import ConnectivityExceededError, Graph, SolutionMap, random_chain_graph
from dcqaoa.graphs import components_excluding, index_rows
from dcqaoa.partition import SeparationResult
import dcqaoa.qaoa as qaoa
import dcqaoa.solver as solver
from dcqaoa.qaoa import _evolve, _expectation_of, _initial_half
from dcqaoa.reconstruction import scheme_function


# property tests explore the same examples on every run and keep no database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def check_separation_invariants(g, split):
    """Assert every structural guarantee of a node-separator split: the
    separator is in both subgraphs, and each of its nodes is adjacent to
    every component it leaves."""
    sep = set(split.separator)
    g1, g2 = split.subgraphs
    for gi in (g1, g2):
        assert Graph.from_edges(gi.edges, nodes=gi.nodes) == gi
    n1, n2 = set(g1.nodes), set(g2.nodes)
    assert n1 & n2 == sep
    assert n1 | n2 == set(g.nodes)
    e1, e2 = set(g1.edges), set(g2.edges)
    assert e1 | e2 == set(g.edges)
    assert not (e1 & e2)
    for u, v in g.edges:
        assert not (
            (u in n1 - sep and v in n2 - sep) or (u in n2 - sep and v in n1 - sep)
        )
    # the first half of the components, ascending by smallest node, against the rest
    comps = components_excluding(g, sep)
    assert len(comps) >= 2
    half = len(comps) // 2
    assert n1 - sep == set().union(*comps[:half])
    assert n2 - sep == set().union(*comps[half:])
    for v in sep:
        assert all(not comp.isdisjoint(g.adjacency[v]) for comp in comps)


def enumerated_nlgp(g: Graph, k: int) -> SeparationResult:
    """Every separator size by `combinations` and `components_excluding`:
    the oracle for partition.nlgp, whose sizes 0 and 1 read the forest."""
    for size in range(k):
        for separator in combinations(g.nodes, size):
            comps = components_excluding(g, frozenset(separator))
            if len(comps) >= 2:
                half = len(comps) // 2
                side1 = set(separator).union(*comps[:half])
                side2 = set(separator).union(*comps[half:])
                # separator-internal edges go to side 1 only
                in1 = [u in side1 and v in side1 for u, v in g.edges]
                edges1 = tuple(e for e, first in zip(g.edges, in1) if first)
                edges2 = tuple(e for e, first in zip(g.edges, in1) if not first)
                return SeparationResult(
                    separator=separator,
                    subgraphs=(
                        Graph(nodes=tuple(sorted(side1)), edges=edges1),
                        Graph(nodes=tuple(sorted(side2)), edges=edges2),
                    ),
                )
    raise ConnectivityExceededError(k, g.n)


def tarjan_biconnected_blocks(g: Graph):
    """(nodes, edges) per biconnected component by a Hopcroft-Tarjan edge
    stack over ``g.adjacency``: the oracle for graphs._biconnected_blocks."""
    adj = g.adjacency
    visited: set[int] = set()
    depth: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    blocks: list[tuple[set[int], list[tuple[int, int]]]] = []

    def emit(until_edge):
        block_edges = []
        while stack:
            e = stack.pop()
            block_edges.append(e)
            if e == until_edge:
                break
        nodes = {u for e in block_edges for u in e}
        blocks.append((nodes, block_edges))

    for root in g.nodes:
        if root in visited:
            continue
        # iterative DFS, tracking tree edges and low-points
        visited.add(root)
        depth[root] = 0
        low[root] = 0
        frame = [(root, None, iter(adj[root]))]
        while frame:
            v, parent, nbrs = frame[-1]
            advanced = False
            for w in nbrs:
                if w == parent:
                    continue
                if w not in visited:
                    visited.add(w)
                    depth[w] = depth[v] + 1
                    low[w] = depth[w]
                    stack.append((v, w))
                    frame.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                elif depth[w] < depth[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], depth[w])
            if not advanced:
                frame.pop()
                if frame:
                    u = frame[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= depth[u]:
                        emit((u, v))
    return blocks


def floor_rescale(m: SolutionMap, s: int) -> SolutionMap:
    """Floor every count to s * c / total and drop the zeros: the oracle for
    solver.rescale, which equals it whenever no row floors to zero."""
    total = m.total()
    scaled = [(s * c) // total for c in m.row_counts]
    kept = [i for i, c in enumerate(scaled) if c > 0]
    return m.take(kept, [scaled[i] for i in kept])


def gathered_cut_values(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Row x edge gather of the endpoint bits: the oracle for graphs.cut_values
    and graphs.column_cuts."""
    pu, pv = g.edge_positions.T
    return np.count_nonzero(rows[:, pu] != rows[:, pv], axis=1)


def blocked_random_search(g: Graph, budget: int, seed: int, block: int = 4096) -> tuple[str, int]:
    """(assignment, cut) of the first best of `budget` rows drawn by
    rng.integers and scored by gathered_cut_values `block` rows at a time: the
    oracle for baselines.random_search. A block of a multiple of 4 rows spends
    whole 32-bit words, so the blocks continue one draw of every row."""
    rng = np.random.default_rng(seed)
    best_cut, best_row = -1, None
    for lo in range(0, budget, block):
        rows = np.zeros((min(block, budget - lo), g.n), dtype=np.uint8)
        if g.n > 1:
            rows[:, 1:] = rng.integers(0, 2, size=(len(rows), g.n - 1), dtype=np.uint8)
        cuts = gathered_cut_values(g, rows)
        best = int(np.argmax(cuts))
        if cuts[best] > best_cut:
            best_cut, best_row = int(cuts[best]), rows[best]
    return "".join(str(b) for b in best_row), best_cut


def positions(g: Graph) -> dict[int, int]:
    """Map node label -> bit position (rank in the sorted node tuple)."""
    return {v: i for i, v in enumerate(g.nodes)}


def naive_cut_size(g: Graph, assignment: str) -> int:
    """Per-edge string loop: the oracle for graphs.cut_values."""
    idx = positions(g)
    return sum(1 for u, v in g.edges if assignment[idx[u]] != assignment[idx[v]])


def string_combine(g1: Graph, g2: Graph, m1: SolutionMap, m2: SolutionMap, scheme: str):
    """Signature-dict join over assignment strings: the oracle for
    reconstruction.combine. Returns (union nodes, {merged string: count})."""
    fn = scheme_function(scheme)
    common = sorted(set(g1.nodes) & set(g2.nodes))
    pos1, pos2 = positions(g1), positions(g2)
    union_nodes = tuple(sorted(set(g1.nodes) | set(g2.nodes)))
    picks = [(0, pos1[v]) if v in pos1 else (1, pos2[v]) for v in union_nodes]
    by_signature = {}
    for s2, c2 in m2.counts.items():
        by_signature.setdefault("".join(s2[pos2[v]] for v in common), []).append((s2, c2))
    merged = {}
    for s1, c1 in m1.counts.items():
        for s2, c2 in by_signature.get("".join(s1[pos1[v]] for v in common), ()):
            pair = (s1, s2)
            merged["".join(pair[side][i] for side, i in picks)] = fn(c1, c2)
    return union_nodes, merged


def mirrored(half: np.ndarray) -> np.ndarray:
    """The spin-flip-symmetric full state whose bit-0 = 0 half is `half`."""
    return np.concatenate((half, half[::-1]))


def random_half(n: int, seed: int) -> np.ndarray:
    """Random complex bit-0 = 0 half of an n-qubit spin-flip-symmetric state."""
    rng = np.random.default_rng(seed)
    size = 1 << (n - 1)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def cut_value_table(g: Graph) -> np.ndarray:
    """Cut of each of the 2^n basis states, MSB first, over the whole space:
    the oracle for Graph.cut_table, which holds its bit-0 = 0 half."""
    return gathered_cut_values(g, index_rows(np.arange(1 << g.n), g.n)).astype(np.intp)


def final_state(g: Graph, params) -> np.ndarray:
    """Full statevector after the whole depth-p circuit on g."""
    return mirrored(_evolve(_initial_half(g.n), g.cut_table, params.layers))


def qaoa_expectation(g: Graph, params) -> float:
    """Exact expected cut size of the circuit's output distribution."""
    return _expectation_of(_evolve(_initial_half(g.n), g.cut_table, params.layers), g.cut_table)


def build_initial_state(n: int) -> np.ndarray:
    """Uniform superposition over all 2^n amplitudes: the full-state oracle
    for qaoa._initial_half."""
    return np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=np.complex128)


def full_cost_phases(state: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """Full-state cost layer: one phase per cut value, gathered by the table.
    A function call, not the `*` operator, so numpy cannot reuse the gathered
    temporary in place and the operand order stays state first."""
    phases = np.exp(-1j * gamma * np.arange(table.max() + 1, dtype=np.float64))
    return np.multiply(state, phases[table])


def full_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Full-state mixer: one whole-array step per qubit over all 2^n amplitudes."""
    n = (len(state) - 1).bit_length()
    out = state
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    for q in range(n):
        view = out.reshape(1 << q, 2, -1)
        out = (c * view + s * view[:, ::-1, :]).reshape(-1)
    return out


def full_evolve(state: np.ndarray, table: np.ndarray, layers) -> np.ndarray:
    """Depth-p circuit on the full 2^n-amplitude state: the oracle for
    qaoa._evolve, whose half state it gives mirrored."""
    for gamma, beta in layers:
        state = full_mixer_layer(full_cost_phases(state, table, gamma), beta)
    return state


def full_expectation(state: np.ndarray, table: np.ndarray) -> float:
    """Expected cut of a full state: the oracle for qaoa._expectation_of."""
    probs = np.abs(state) ** 2
    return float(probs @ table / probs.sum())


@contextmanager
def full_state_qaoa():
    """Within the block, qaoa's optimizer and sampler run on full states
    through the oracles, as the simulator did before the half-state kernels;
    the evolution mirrors the half cut table it is given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qaoa, "_initial_half", build_initial_state)
        mp.setattr(qaoa, "_evolve", lambda state, t, layers: full_evolve(state, mirrored(t), layers))
        mp.setattr(qaoa, "_probabilities", lambda state: np.abs(state) ** 2)
        yield


def float_cost_phases(state: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """One complex exponential per basis state over a float cut table: the
    oracle for qaoa.apply_cost_phases."""
    return state * np.exp(-1j * gamma * table.astype(np.float64))


def loop_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Half-array updates of a copy, qubit by qubit: the oracle for
    qaoa.apply_mixer_layer."""
    n = (len(state) - 1).bit_length()
    out = state.copy()
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    for q in range(n):
        view = out.reshape(1 << q, 2, -1)
        top = view[:, 0, :].copy()
        bottom = view[:, 1, :]
        view[:, 0, :] = c * top + s * bottom
        view[:, 1, :] = c * bottom + s * top
    return out


def toy_graph() -> Graph:
    """Triangle {0,1,2} joined to the path 2-3-4; MaxCut 4, six optima."""
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])


def triangle() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (1, 2)])


def k2() -> Graph:
    return Graph.from_edges([(0, 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def exact_leaves(monkeypatch):
    """solver._solve_leaf returns every optimum of its leaf, read off
    Graph.cut_table in both orientations, each at count 1: solves then run
    no QAOA, and every leaf map holds exactly the leaf's optima."""

    def solve_leaf(g, seed, cfg, angles):
        table = g.cut_table
        half = index_rows(np.flatnonzero(table == table.max()), g.n)
        rows = np.concatenate((half, half ^ 1))
        return SolutionMap.from_rows(g.nodes, rows, [1] * len(rows))

    monkeypatch.setattr(solver, "_solve_leaf", solve_leaf)


def relabel(g: Graph, mapping: dict) -> Graph:
    """The same graph with node v renamed mapping[v]."""
    return Graph.from_edges(
        [(mapping[u], mapping[v]) for u, v in g.edges],
        nodes=[mapping[v] for v in g.nodes],
    )


def isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism test: try every bijection of g's nodes onto h's."""
    if g.n != h.n or g.m != h.m:
        return False
    target = set(h.edges)
    for image in permutations(h.nodes):
        f = dict(zip(g.nodes, image))
        if all((min(f[u], f[v]), max(f[u], f[v])) in target for u, v in g.edges):
            return True
    return False


def brute_force_form(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact isomorphism-class key: node count plus the smallest edge tuple
    over all n! relabelings of the bit positions. The oracle for
    graphs.refined_form."""
    positions = g.edge_positions.tolist()
    best = min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in positions))
        for p in permutations(range(g.n))
    )
    return g.n, best


@st.composite
def graphs(draw, max_nodes=6, edge_count=None, nodes=None):
    """Simple graphs on distinct arbitrary labels, possibly with isolated nodes."""
    if nodes is None:
        n = draw(st.integers(1, max_nodes))
        nodes = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    if edge_count is None:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        edges = draw(st.permutations(pairs))[:edge_count]
    return Graph.from_edges(edges, nodes=nodes)


@st.composite
def count_maps(draw, max_width=5, max_rows=12):
    """Solution maps of distinct rows with positive counts, some beyond 64 bits."""
    width = draw(st.integers(1, max_width))
    keys = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=max_rows, unique=True))
    counts = draw(st.lists(st.integers(1, 10**30), min_size=len(keys), max_size=len(keys)))
    return SolutionMap(tuple(range(width)), {format(k, f"0{width}b"): c for k, c in zip(keys, counts)})


@st.composite
def relabelings(draw, g: Graph) -> Graph:
    """g under a random bijection onto fresh arbitrary labels."""
    fresh = draw(st.lists(st.integers(0, 99), min_size=g.n, max_size=g.n, unique=True))
    return relabel(g, dict(zip(g.nodes, fresh)))


@st.composite
def forests(draw, max_trees=3, max_tree_nodes=10):
    """Random trees and disjoint unions of them, on shuffled labels."""
    sizes = draw(st.lists(st.integers(1, max_tree_nodes), min_size=1, max_size=max_trees))
    edges, offset = [], 0
    for size in sizes:
        # node offset + i hangs below a random earlier node of its tree
        edges += [(offset + draw(st.integers(0, i - 1)), offset + i) for i in range(1, size)]
        offset += size
    labels = draw(st.permutations(range(offset)))
    return Graph.from_edges([(labels[u], labels[v]) for u, v in edges], nodes=labels)


@st.composite
def chains(draw, max_nodes=40):
    """random_chain_graph samples on shuffled labels, so the smallest cut
    vertex may sit anywhere along the chain."""
    g = random_chain_graph(draw(st.integers(2, max_nodes)), draw(st.integers(0, 10**6)))
    return relabel(g, dict(zip(g.nodes, draw(st.permutations(g.nodes)))))


@st.composite
def disjoint_unions(draw, min_parts=4, max_parts=6):
    """Disjoint unions of at least `min_parts` small graphs on shuffled
    labels, so they have at least that many components."""
    parts = draw(st.lists(graphs(max_nodes=4), min_size=min_parts, max_size=max_parts))
    edges, nodes, offset = [], [], 0
    for part in parts:
        shift = {v: offset + i for i, v in enumerate(part.nodes)}
        nodes += shift.values()
        edges += [(shift[u], shift[v]) for u, v in part.edges]
        offset += part.n
    labels = draw(st.permutations(range(offset)))
    return Graph.from_edges([(labels[u], labels[v]) for u, v in edges], nodes=labels)


@st.composite
def cycles_with_pendants(draw, max_cycle=9, max_pendants=8):
    """A cycle with trees hanging off it, on shuffled labels: the cycle
    needs a two-node separator, and the trees below it cut vertices."""
    length = draw(st.integers(4, max_cycle))
    edges = [(i, (i + 1) % length) for i in range(length)]
    n = length + draw(st.integers(0, max_pendants))
    edges += [(draw(st.integers(0, i - 1)), i) for i in range(length, n)]
    labels = draw(st.permutations(range(n)))
    return Graph.from_edges([(labels[u], labels[v]) for u, v in edges])


def block_set(blocks) -> set:
    """Biconnected blocks as a set of (node tuple, canonical edge tuple)."""
    return {
        (tuple(sorted(nodes)), tuple(sorted((min(e), max(e)) for e in edges)))
        for nodes, edges in blocks
    }
