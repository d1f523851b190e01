"""Classical comparison solvers for approximation-ratio benchmarking.

random_search takes its coins as the bits of the generator's raw 64-bit words:
a block of r rows draws r/64 words per node, whose little-endian bytes are the
node's packed column (row 64w + k in bit k of word w), the layout
``graphs.column_cuts``, the scorer behind ``cut_values``, reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, column_cuts, cut_values, row_strings
from .seeds import derive_seed

# random_search rows per block; a multiple of 64, so each node's coins in a
# block are whole 64-bit words of the stream
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
    bounded; the first best row over all blocks wins. Every block draws all of
    its words, so row i's coins do not depend on the budget, and the last block
    scores only the rows the budget asks for.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if g.n == 0:
        raise ValueError("graph has no nodes")
    start = time.perf_counter()
    words = _SEARCH_BLOCK_ROWS // 64
    bitgen = np.random.default_rng(seed).bit_generator
    columns = np.zeros((g.n, 8 * words), dtype=np.uint8)
    best_cut, best_bits = -1, None
    for lo in range(0, budget, _SEARCH_BLOCK_ROWS):
        raw = bitgen.random_raw((g.n - 1) * words).astype("<u8", copy=False)
        columns[1:] = raw.view(np.uint8).reshape(g.n - 1, 8 * words)
        cuts = column_cuts(g, columns, min(_SEARCH_BLOCK_ROWS, budget - lo))
        best = int(np.argmax(cuts))
        if cuts[best] > best_cut:
            best_cut, best_bits = int(cuts[best]), (columns[:, best >> 3] >> (best & 7)) & 1
    return BaselineResult(
        best_assignment=row_strings(best_bits[None])[0],
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
    if g.n == 0:
        raise ValueError("graph has no nodes")
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
    return BaselineResult(
        best_assignment=row_strings(best_bits.view(np.uint8)[None])[0],
        best_cut=best_cut,
        evaluations=evaluations,
        elapsed=time.perf_counter() - start,
    )
