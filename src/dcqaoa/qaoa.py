"""Exact statevector simulation of depth-p QAOA MaxCut circuits.

Basis convention: index b of the amplitude array corresponds to the
assignment bitstring ``format(b, f"0{n}b")``, i.e. bit position 0 (the
smallest node) is the most significant bit. The cost layer is applied as a
single diagonal phase multiply using the precomputed per-basis cut value,
which equals the per-edge two-qubit phase circuit up to global phase. A cut
value is an integer in 0..|E|, so the layer evaluates one phase per distinct
cut value and gathers it by the table. The mixer is one whole-array step
per qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import SizeLimitError
from .graphs import Graph, SolutionMap, cut_values, index_rows
from .seeds import derive_seed

QUBIT_CAP = 20
DEFAULT_RESTARTS = 5
DEFAULT_BUDGET = 200
MAX_SHOTS = 2**63 - 1  # the most draws numpy's multinomial sampler takes
_EV_TOL = 1e-4


@dataclass(frozen=True)
class AnsatzParams:
    """Per-layer (gamma, beta) angle pairs of a depth-p ansatz."""

    layers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple((float(g), float(b)) for g, b in self.layers)
        )
        if len(self.layers) < 1:
            raise ValueError("ansatz needs at least one layer")
        for gamma, beta in self.layers:
            if not (math.isfinite(gamma) and math.isfinite(beta)):
                raise ValueError("angles must be finite")

    @property
    def p(self) -> int:
        return len(self.layers)

    def as_flat(self) -> np.ndarray:
        return np.array([a for pair in self.layers for a in pair], dtype=float)

    @classmethod
    def from_flat(cls, x) -> "AnsatzParams":
        x = list(x)
        if len(x) % 2 != 0:
            raise ValueError("flat parameter vector must have even length")
        return cls(tuple((x[i], x[i + 1]) for i in range(0, len(x), 2)))


def cut_value_table(g: Graph) -> np.ndarray:
    """Integer cut size of every basis state, indexed per the MSB-first convention."""
    n = _check_qubits(g.n)
    return cut_values(g, index_rows(np.arange(1 << n), n)).astype(np.intp)


def build_initial_state(n: int) -> np.ndarray:
    """Uniform superposition over n qubits."""
    n = _check_qubits(n)
    dim = 1 << n
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


def apply_cost_phases(state: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """Phase e^(-i*gamma*table[b]) on each basis amplitude; table is cut_value_table(g).

    The table holds non-negative integers, so the phase is evaluated once per
    value 0..max(table) and gathered by the table.
    """
    if state.shape != table.shape:
        raise ValueError("state and cut table dimensions differ")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError(f"cut table must have an integer dtype, not {table.dtype}")
    if table.min() < 0:
        raise ValueError("cut table holds a negative entry")
    phases = np.exp(-1j * gamma * np.arange(table.max() + 1, dtype=np.float64))
    return state * phases[table]


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """R_X(2*beta) on every qubit, one whole-array step per qubit.

    Qubit q pairs the halves of axis 1 of a (2^q, 2, rest) view: each half
    becomes cos(beta) times itself plus -i*sin(beta) times the other half.
    """
    n = _qubits_of(state)
    out = state
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    for q in range(n):
        view = out.reshape(1 << q, 2, -1)
        out = (c * view + s * view[:, ::-1, :]).reshape(-1)
    return out


def _evolve(state: np.ndarray, table: np.ndarray, layers) -> np.ndarray:
    for gamma, beta in layers:
        state = apply_cost_phases(state, table, gamma)
        state = apply_mixer_layer(state, beta)
    return state


def _expectation_of(state: np.ndarray, table: np.ndarray) -> float:
    probs = np.abs(state) ** 2
    return float(probs @ table / probs.sum())


def optimize_params(
    g: Graph,
    p: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    restarts: int = DEFAULT_RESTARTS,
) -> tuple[AnsatzParams, float]:
    """Multi-start Nelder-Mead maximization of the expected cut.

    Each restart begins from a seeded uniform draw over the angle box
    gamma in [0, 2pi), beta in [0, pi) and may spend `budget` function
    evaluations. Deterministic for a fixed seed.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    _check_qubits(g.n)
    table = cut_value_table(g)
    state0 = build_initial_state(g.n)

    def neg_expectation(x: np.ndarray) -> float:
        layers = [(x[2 * i], x[2 * i + 1]) for i in range(p)]
        return -_expectation_of(_evolve(state0, table, layers), table)

    rng = np.random.default_rng(seed)
    best_x: np.ndarray | None = None
    best_val = -math.inf
    for _ in range(restarts):
        x0 = np.empty(2 * p)
        x0[0::2] = rng.uniform(0.0, 2.0 * math.pi, size=p)
        x0[1::2] = rng.uniform(0.0, math.pi, size=p)
        result = minimize(
            neg_expectation,
            x0,
            method="Nelder-Mead",
            options={"maxfev": budget, "fatol": _EV_TOL, "xatol": 1e-3},
        )
        value = -float(result.fun)
        if value > best_val:
            best_val = value
            best_x = np.asarray(result.x, dtype=float)
    assert best_x is not None
    return AnsatzParams.from_flat(best_x), best_val


def sample_solution_map(g: Graph, params: AnsatzParams, shots: int, seed: int) -> SolutionMap:
    """Seeded measurement of the final state; entry order is unspecified."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}")
    n = g.n
    table = cut_value_table(g)
    state = _evolve(build_initial_state(n), table, params.layers)
    probs = np.abs(state) ** 2
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    rows = index_rows(drawn, n)
    return SolutionMap.from_rows(g.nodes, rows, draws[drawn].tolist())


def qaoa_maxcut(
    g: Graph,
    p: int,
    shots: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    restarts: int = DEFAULT_RESTARTS,
) -> SolutionMap:
    """Optimize the ansatz, then sample its output distribution."""
    params, _ = optimize_params(
        g, p, seed=derive_seed(seed, "optimize"), budget=budget, restarts=restarts
    )
    return sample_solution_map(g, params, shots, seed=derive_seed(seed, "sample"))


def _check_qubits(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > QUBIT_CAP:
        raise SizeLimitError(f"{n} qubits exceeds the simulator cap of {QUBIT_CAP}")
    return n


def _qubits_of(state: np.ndarray) -> int:
    n = (len(state) - 1).bit_length()
    if len(state) != 1 << n or len(state) < 2:
        raise ValueError("statevector length must be a power of two >= 2")
    return n
