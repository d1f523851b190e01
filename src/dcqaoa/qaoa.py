"""Exact statevector simulation of depth-p QAOA MaxCut circuits.

Basis convention: index b of the amplitude array corresponds to the
assignment bitstring ``format(b, f"0{n}b")``, i.e. bit position 0 (the
smallest node) is the most significant bit. The cost layer is one diagonal
phase multiply by ``Graph.cut_table``, which equals the per-edge two-qubit
phase circuit up to global phase. A cut value is an integer in 0..|E|, so
the layer evaluates one phase per distinct cut value and gathers it by the
table. The mixer is one whole-array step per qubit.

Half layout: a cut is unchanged when every bit flips, and both |+>^n and
the mixer commute with X^n, so every state of the circuit is spin-flip
symmetric, psi(b) = psi(2^n - 1 - b). The simulator therefore carries only
the bit-0 = 0 half, the first 2^(n-1) amplitudes; the full state is
``concat(half, half[::-1])``. Each amplitude of the half is computed by
the same floating-point operations as in a full-state run, so the rebuilt
state is bit for bit the full one. The readout mirrors the squared
magnitudes, and the cut table of the same half, to full length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import SizeLimitError
from .graphs import Graph, SolutionMap, index_rows
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

    @classmethod
    def from_flat(cls, x) -> "AnsatzParams":
        x = list(x)
        if len(x) % 2 != 0:
            raise ValueError("flat parameter vector must have even length")
        return cls(tuple((x[i], x[i + 1]) for i in range(0, len(x), 2)))


def _initial_half(n: int) -> np.ndarray:
    """The bit-0 = 0 half of the uniform superposition over n qubits."""
    n = _check_qubits(n)
    return np.full(1 << (n - 1), 1.0 / math.sqrt(1 << n), dtype=np.complex128)


def apply_cost_phases(
    half: np.ndarray, table: np.ndarray, cut_range: np.ndarray, gamma: float
) -> np.ndarray:
    """Phase e^(-i*gamma*table[b]) on each amplitude of a half state.

    ``table`` is the half's ``Graph.cut_table`` and ``cut_range`` is 0.0,
    1.0, ..., max cut: the phase is evaluated once per cut value and
    gathered by the table. ``_evolve`` checks the table once per circuit.
    """
    gathered = np.exp(-1j * gamma * cut_range)[table]
    return np.multiply(half, gathered, out=gathered)


def apply_mixer_layer(half: np.ndarray, beta: float) -> np.ndarray:
    """R_X(2*beta) on every qubit of a spin-flip-symmetric state, as its half.

    For each qubit, every amplitude becomes cos(beta) times itself plus
    -i*sin(beta) times its partner across that qubit. For qubit 0 the
    partner of half[j] lies in the other half; by symmetry it equals
    half[2^(n-1)-1-j], so the step pairs the half with its reverse. Qubit
    q >= 1 pairs the halves of axis 1 of a (2^(q-1), 2, rest) view, one
    whole-array step per qubit.
    """
    n = _qubits_of(half)
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    out = c * half + s * half[::-1]
    for q in range(1, n):
        view = out.reshape(1 << (q - 1), 2, -1)
        out = (c * view + s * view[:, ::-1, :]).reshape(-1)
    return out


def _evolve(half: np.ndarray, table: np.ndarray, layers) -> np.ndarray:
    """The depth-p circuit on the half of a spin-flip-symmetric state.

    ``table`` is ``Graph.cut_table``, the cut of each amplitude of the half;
    it is checked here, once per circuit.
    """
    if table.shape != half.shape:
        raise ValueError("state and cut table dimensions differ")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError(f"cut table must have an integer dtype, not {table.dtype}")
    if table.min() < 0:
        raise ValueError("cut table holds a negative entry")
    cut_range = np.arange(table.max() + 1, dtype=np.float64)
    table = table.astype(np.intp)  # numpy gathers by intp indices fastest
    for gamma, beta in layers:
        half = apply_cost_phases(half, table, cut_range, gamma)
        half = apply_mixer_layer(half, beta)
    return half


def _probabilities(half: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of all 2^n basis states, mirrored from the half."""
    probs = np.abs(half) ** 2
    return np.concatenate((probs, probs[::-1]))


def _expectation_of(half: np.ndarray, table: np.ndarray) -> float:
    probs = _probabilities(half)
    return float(probs @ np.concatenate((table, table[::-1])) / probs.sum())


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
    half0 = _initial_half(g.n)  # checks the qubit cap before the table is built
    table = g.cut_table

    def neg_expectation(x: np.ndarray) -> float:
        layers = [(x[2 * i], x[2 * i + 1]) for i in range(p)]
        return -_expectation_of(_evolve(half0, table, layers), table)

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
    n = _check_qubits(g.n)
    probs = _probabilities(_evolve(_initial_half(n), g.cut_table, params.layers))
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


def _qubits_of(half: np.ndarray) -> int:
    """Qubit count n of a half state, whose length is 2^(n-1)."""
    if len(half) < 1 or len(half) & (len(half) - 1):
        raise ValueError("half statevector length must be a power of two >= 1")
    return len(half).bit_length()
