"""Exact statevector simulation of depth-p QAOA MaxCut circuits.

Basis convention: index b of the amplitude array corresponds to the
assignment bitstring ``format(b, f"0{n}b")``, i.e. bit position 0 (the
smallest node) is the most significant bit. The cost layer is one diagonal
phase multiply by ``Graph.cut_table``, which equals the per-edge two-qubit
phase circuit up to global phase. A cut value is an integer in 0..|E|, so
the layer evaluates one phase per distinct cut value and gathers it by the
table. The mixer runs each qubit's rotation, factored as f*(I + t*X), as
two array passes into views planned once per circuit, then multiplies by
f^n once per layer (see ``apply_mixer_layer``). On a half of 64 amplitudes
or more, the last three qubits, whose pairs lie fewer than 8 apart, run on
a transposed copy of the state, where they pair whole rows.

Circuit: ``optimize_params`` and ``output_distribution`` each build one
``_Circuit`` from the leaf's graph. It checks the qubit cap before it reads
the graph's cut table, and holds the table, the read-only start state and
every array a run writes: two ping-pong state buffers and the planned
views, and no scratch buffer. A run allocates no state-sized complex array,
and each kernel does the floating-point operations of one that allocates
afresh.

Half layout: a cut is unchanged when every bit flips, and both |+>^n and
the mixer commute with X^n, so every state of the circuit is spin-flip
symmetric, psi(b) = psi(2^n - 1 - b). The simulator therefore carries only
the bit-0 = 0 half, the first 2^(n-1) amplitudes; the full state is
``concat(half, half[::-1])``. Each amplitude of the half is computed by
the same floating-point operations as in a full-state run, so the rebuilt
state is bit for bit the full one. The expected cut reads the half alone;
the sampler mirrors the squared magnitudes to full length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .graphs import Graph, SolutionMap, index_rows
from .seeds import derive_seed

QUBIT_CAP = 20
DEFAULT_RESTARTS = 5
DEFAULT_BUDGET = 200
MAX_SHOTS = 2**63 - 1  # the most draws numpy's multinomial sampler takes
_EV_TOL = 1e-4
# How far below its donor's expectation ratio a warm start may end and still
# stand in for the random restarts. Same-size leaves with other edges peak at
# other ratios, so a good warm start often ends just below its donor. On
# leaf-wide seeds 1-10, slack 0 saved 23% of the evaluations and 0.02 saved
# 33%, with the same approximation ratio on every seed.
_WARM_SLACK = 0.02


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


class _Circuit:
    """The arrays of one leaf's circuit, built once and reused by every run.

    It holds g's cut table as ``intp`` and ``cut_range``, the read-only
    uniform start half ``start``, two ping-pong state buffers ``a`` and
    ``b``, and every mixer step's views for a layer that starts in either
    buffer. Each kernel writes into the buffer its input is not in, so a
    state the kernels return stays valid until the next kernel call on the
    same circuit.
    """

    def __init__(self, g: Graph):
        n = g.n  # the cap is checked before the table is built
        if n < 1:
            raise ValueError("need at least one qubit")
        if n > QUBIT_CAP:
            raise SizeLimitError(f"{n} qubits exceeds the simulator cap of {QUBIT_CAP}")
        table = g.cut_table
        self.table = table.astype(np.intp)  # numpy gathers by intp indices fastest
        self.cut_range = np.arange(table.max() + 1, dtype=np.float64)
        self.start = np.full(len(table), 1.0 / math.sqrt(1 << n), dtype=np.complex128)
        self.start.flags.writeable = False
        self.a, self.b = np.empty((2, len(table)), dtype=np.complex128)
        self.from_a = self._mixer_steps(n, self.a, self.b)
        self.from_b = self._mixer_steps(n, self.b, self.a)

    def _mixer_steps(self, n: int, src: np.ndarray, dst: np.ndarray):
        """The steps of an n-qubit mixer layer that starts in `src`, and the
        buffer it ends in. A qubit step is (source, partner, destination)
        views, and each step moves the state to the other buffer.

        Qubit 0 pairs the half with its reverse and qubit q >= 1 pairs the
        halves of axis 1 of a (2^(q-1), 2, rest) view. At 64 amplitudes or
        more, the last three qubits, whose pairs lie fewer than 8 apart, run
        on the (8, rest) transpose of the state, where the same qubits pair
        whole rows of it; a step with no partner is a transpose.
        """
        steps = []

        def step(source, partner, destination):
            nonlocal src, dst
            steps.append((source, partner, destination))
            src, dst = dst, src

        def pair_step(shape):
            view = src.reshape(shape)
            step(view, view[:, ::-1], dst.reshape(shape))

        tail = 3 if len(src) >= 64 else 0
        step(src, src[::-1], dst)
        for q in range(1, n - tail):
            pair_step((1 << (q - 1), 2, -1))
        if tail:
            step(src.reshape(-1, 8).T, None, dst.reshape(8, -1))
            for j in range(tail):
                pair_step((1 << j, 2, -1))
            step(src.reshape(8, -1).T, None, dst.reshape(-1, 8))
        return steps, src


def apply_cost_phases(half: np.ndarray, gamma: float, circuit: _Circuit) -> np.ndarray:
    """Phase e^(-i*gamma*table[b]) on each amplitude of a half state.

    ``circuit.table`` is the graph's ``Graph.cut_table`` and
    ``circuit.cut_range`` is 0.0, 1.0, ..., max cut: the phase is evaluated
    once per cut value and gathered by the table. The result is written
    into a buffer of `circuit`, not into `half`.
    """
    phases = np.exp(-1j * gamma * circuit.cut_range)
    # a cut table's entries lie in 0..max cut; mode "raise" would gather into a temporary first
    out = circuit.b if half is circuit.a else circuit.a
    gathered = phases.take(circuit.table, out=out, mode="clip")
    return np.multiply(half, gathered, out=gathered)


def apply_mixer_layer(half: np.ndarray, beta: float, circuit: _Circuit) -> np.ndarray:
    """R_X(2*beta) on every qubit of a spin-flip-symmetric state, as its half.

    R_X(2*beta) = c*I + s*X, with c = cos(beta) and s = -i*sin(beta), is
    c*(I + t*X) with t = s/c, or s*X*(I + t*X) with t = c/s; the call takes
    the form with |t| <= 1. The X factors multiply to X^n, which fixes a
    spin-flip-symmetric state, so each qubit step is two array passes, t
    times the partner amplitude plus the amplitude, and the layer ends with
    one multiply by f^n (f = c or s); the amplitudes grow by at most 2^n
    before it. The steps write into views that `circuit` planned (see
    ``_Circuit._mixer_steps``); a half in neither buffer is copied into
    buffer ``a`` first. The result is written into `circuit`, not into
    `half`.
    """
    if half is circuit.b:
        steps, out = circuit.from_b
    else:
        if half is not circuit.a:
            np.copyto(circuit.a, half)
        steps, out = circuit.from_a
    c, s = math.cos(beta), complex(0.0, -math.sin(beta))
    t, f = (s / c, c) if abs(c) >= abs(s) else (c / s, s)
    for src, partner, dst in steps:
        if partner is None:
            np.copyto(dst, src)
        else:  # dst = t * partner + src, in this order
            np.multiply(t, partner, out=dst)
            np.add(dst, src, out=dst)
    return np.multiply(out, f ** len(out).bit_length(), out=out)


def _evolve(circuit: _Circuit, layers) -> np.ndarray:
    """The depth-p circuit on the half of the uniform start state. The
    result lives in a buffer of `circuit` until its next run."""
    half = circuit.start
    for gamma, beta in layers:
        half = apply_cost_phases(half, gamma, circuit)
        half = apply_mixer_layer(half, beta, circuit)
    return half


def _probabilities(half: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of all 2^n basis states, mirrored from the half."""
    probs = np.abs(half) ** 2
    return np.concatenate((probs, probs[::-1]))


def _expectation_of(half: np.ndarray, table: np.ndarray) -> float:
    """Expected cut of a half state over its ``float64`` cut table; the
    mirrored half would add the same terms to numerator and denominator."""
    probs = half.real ** 2
    probs += half.imag ** 2
    return float(probs @ table / probs.sum())


def _initial_simplex(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's initial simplex around `x0`, and its values, all inf so far:
    vertex k + 1 scales coordinate k by 1.05, or sets it to 0.00025 where
    it is 0."""
    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    return sim, np.full(n + 1, np.inf)


def _sort_simplex(sim: np.ndarray, fsim: np.ndarray) -> None:
    order = np.argsort(fsim)
    sim[:], fsim[:] = sim[order], fsim[order]


def _simplex_search(sim: np.ndarray, fsim: np.ndarray):
    """Nelder-Mead on a simplex from ``_initial_simplex``, as a generator.

    It yields each point it wants and receives that point's value by
    ``send``, and it updates `sim` and `fsim` in place. It keeps no budget
    and ends when vertices lie within 1e-3 and values within ``_EV_TOL`` of
    the best; a driver whose budget is spent closes it. Steps are scipy's
    non-adaptive ones: reflection 1, expansion 2, contraction 0.5, shrink
    0.5. Sorts are scipy's too: the initial simplex is sorted twice, also
    when closed inside it, a step once, also when closed inside it, and a
    close at a step's reflection point sorts nothing.
    """
    n = len(sim) - 1
    try:
        for k in range(n + 1):
            fsim[k] = yield sim[k]
    finally:  # argsort need not be stable on ties, so the second sort counts
        for _ in range(2):
            _sort_simplex(sim, fsim)
    while not (np.max(np.abs(sim[1:] - sim[0])) <= 1e-3
               and np.max(np.abs(fsim[0] - fsim[1:])) <= _EV_TOL):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        try:
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield xe
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside when xr beats the worst vertex, else inside
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield xc
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):  # shrink toward the best vertex
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield sim[j]
        finally:
            _sort_simplex(sim, fsim)


def _nelder_mead(fun, x0: np.ndarray, budget: int) -> tuple[np.ndarray, float]:
    """Minimize `fun` from `x0` with at most `budget` calls to it.

    Step for step the Nelder-Mead of scipy 1.17.1 (``_minimize_neldermead``)
    with ``maxfev=budget``, ``xatol=1e-3`` and ``fatol=_EV_TOL``. It sends
    ``_simplex_search`` at most `budget` values and then closes it, so a
    spent budget ends the iteration where it stands; vertices never
    evaluated keep inf. `fun` must not keep or modify the array it gets.
    """
    sim, fsim = _initial_simplex(x0)
    search = _simplex_search(sim, fsim)
    x = next(search)
    for _ in range(budget):
        try:
            x = search.send(fun(x))
        except StopIteration:
            break
    search.close()
    return sim[0], float(np.min(fsim))


def optimize_params(
    g: Graph,
    p: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    restarts: int = DEFAULT_RESTARTS,
    *,
    start: tuple[AnsatzParams, float] | None = None,
) -> tuple[AnsatzParams, float]:
    """Multi-start Nelder-Mead maximization of the expected cut.

    Each start may spend `budget` function evaluations of ``_nelder_mead``,
    whose oracle is ``tests/conftest.py::scipy_nelder_mead``. A cold start
    is a seeded uniform draw over the angle box gamma in [0, 2pi), beta in
    [0, pi); the search is deterministic for a fixed seed.

    `start`, when given, is a warm start ``(angles, ratio)``: the first
    search runs from those depth-p angles instead of a draw. When it
    reaches an expected cut of at least ``ratio - _WARM_SLACK`` times g's
    maximum cut, it is returned; otherwise ``restarts - 1`` searches follow
    from the draws a cold search makes first. The best of all wins (the
    earliest on ties). Without `start` the search is the cold one.
    """
    if p < 1:
        raise ValueError("depth p must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if start is not None and start[0].p != p:
        raise ValueError(f"warm start has depth {start[0].p}, not {p}")
    circuit = _Circuit(g)
    weights = g.cut_table.astype(np.float64)

    def neg_expectation(x: np.ndarray) -> float:
        layers = [(x[2 * i], x[2 * i + 1]) for i in range(p)]
        return -_expectation_of(_evolve(circuit, layers), weights)

    rng = np.random.default_rng(seed)
    best_x: np.ndarray | None = None
    best_val = -math.inf
    for k in range(restarts):
        warm = k == 0 and start is not None
        if warm:
            x0 = np.array([a for layer in start[0].layers for a in layer])
        else:
            x0 = np.empty(2 * p)
            x0[0::2] = rng.uniform(0.0, 2.0 * math.pi, size=p)
            x0[1::2] = rng.uniform(0.0, math.pi, size=p)
        x, low = _nelder_mead(neg_expectation, x0, budget)
        if -low > best_val:
            best_x, best_val = x, -low
        if warm and best_val >= (start[1] - _WARM_SLACK) * int(g.cut_table.max()):
            break
    assert best_x is not None
    return AnsatzParams.from_flat(best_x), best_val


def output_distribution(g: Graph, params: AnsatzParams) -> np.ndarray:
    """Normalized measurement probabilities of all 2^n basis states of the final state."""
    probs = _probabilities(_evolve(_Circuit(g), params.layers))
    probs /= probs.sum()
    return probs


def sample_solution_map(g: Graph, probs: np.ndarray, shots: int, seed: int) -> SolutionMap:
    """Seeded draw of `shots` basis states from `probs`; entry order is unspecified.

    `probs` is a distribution over g's 2^n basis states, such as
    ``output_distribution(g, params)``; any shape but (2^n,) is refused.
    Each row carries its cut, read off ``g.cut_table``: index b of the upper
    half has the cut of its complement 2^n - 1 - b.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}")
    if np.shape(probs) != (1 << g.n,):
        raise ValueError(f"probs has shape {np.shape(probs)}, not ({1 << g.n},)")
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    rows = index_rows(drawn, g.n)
    cuts = g.cut_table[np.minimum(drawn, (1 << g.n) - 1 - drawn)]
    return SolutionMap.from_rows(g.nodes, rows, draws[drawn].tolist(), cuts)


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
    probs = output_distribution(g, params)
    return sample_solution_map(g, probs, shots, seed=derive_seed(seed, "sample"))
