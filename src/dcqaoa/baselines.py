"""Classical comparison solvers for approximation-ratio benchmarking."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, cut_values
from .seeds import derive_seed

# random_search rows per block; a multiple of 4, because numpy draws bounded
# uint8 values from one 32-bit word per 4 outputs, so blocks of whole words
# continue the same stream as one draw of every row
_SEARCH_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BaselineResult:
    best_assignment: str
    best_cut: int
    evaluations: int
    elapsed: float


def random_search(g: Graph, budget: int, seed: int) -> BaselineResult:
    """Best cut among `budget` uniform random assignments (first bit fixed to 0).

    Rows are drawn and scored _SEARCH_BLOCK_ROWS at a time, so memory stays
    bounded; the first best row over all blocks wins.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    start = time.perf_counter()
    n = g.n
    rng = np.random.default_rng(seed)
    best_cut, best_row = -1, None
    for lo in range(0, budget, _SEARCH_BLOCK_ROWS):
        rows = np.zeros((min(_SEARCH_BLOCK_ROWS, budget - lo), n), dtype=np.uint8)
        if n > 1:
            rows[:, 1:] = rng.integers(0, 2, size=(len(rows), n - 1), dtype=np.uint8)
        cuts = cut_values(g, rows)
        best = int(np.argmax(cuts))
        if cuts[best] > best_cut:
            best_cut, best_row = int(cuts[best]), rows[best]
    assignment = "".join("1" if b else "0" for b in best_row)
    return BaselineResult(
        best_assignment=assignment,
        best_cut=best_cut,
        evaluations=budget,
        elapsed=time.perf_counter() - start,
    )


def greedy_local_search(g: Graph, seed: int, restarts: int = 10) -> BaselineResult:
    """Single-bit-flip hill climbing from random starts; best local optimum wins.

    Each climb flips the node with the largest positive cut gain (lowest
    label on ties) until no flip improves, so the result is 1-flip optimal.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    start = time.perf_counter()
    n = g.n
    pu, pv = g.edge_positions.T
    degree = np.bincount(g.edge_positions.ravel(), minlength=n)
    best_bits: np.ndarray | None = None
    best_cut = -1
    evaluations = 0
    for r in range(restarts):
        rng = np.random.default_rng(derive_seed(seed, "restart", r))
        bits = rng.integers(0, 2, size=n, dtype=np.int8)
        bits[0] = 0
        cut = int(cut_values(g, bits.reshape(1, -1))[0])
        evaluations += 1
        while True:
            # flipping v cuts its same-side edges and uncuts its cut ones
            same = bits[pu] == bits[pv]
            gains = 2 * (
                np.bincount(pu[same], minlength=n) + np.bincount(pv[same], minlength=n)
            ) - degree
            evaluations += n
            best_node = int(np.argmax(gains))
            if gains[best_node] <= 0:
                break
            bits[best_node] ^= 1
            cut += int(gains[best_node])
        if cut > best_cut:
            best_cut = cut
            best_bits = bits.copy()
    assert best_bits is not None
    assignment = "".join("1" if b else "0" for b in best_bits)
    return BaselineResult(
        best_assignment=assignment,
        best_cut=best_cut,
        evaluations=evaluations,
        elapsed=time.perf_counter() - start,
    )
