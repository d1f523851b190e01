"""Classical comparison solvers for approximation-ratio benchmarking.

random_search draws the same coins as ``rng.integers(0, 2, dtype=np.uint8)``.
That bounded draw spends one byte of the generator's raw 64-bit stream per
coin, least significant byte first, and returns the byte's top bit (Lemire's
method with range 2), so a block takes its coins straight from
``bit_generator.random_raw``, packs them 8 rows per byte into node columns and
scores them with ``graphs.column_cuts``, the scorer behind ``cut_values``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, column_cuts, cut_values
from .seeds import derive_seed

# random_search rows per block; a multiple of 8, so every block but the last
# spends whole 64-bit words of the stream and packs into whole bytes per node
_SEARCH_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class BaselineResult:
    best_assignment: str
    best_cut: int
    evaluations: int
    elapsed: float


def _coin_bytes(bitgen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next `count` bytes of the raw stream, in the order the bounded uint8
    draw spends them; count is a multiple of 8, so no byte is skipped."""
    raw = bitgen.random_raw(count // 8).astype("<u8", copy=False)
    return raw.view(np.uint8)


def _pack_rows(coins: np.ndarray) -> np.ndarray:
    """(n, r/8) uint8 columns of an (r, n - 1) block of coin bytes, r a multiple
    of 8: bit b of node i's byte j is row 8j + b's side of node i, and node 0
    is all zeros."""
    r, width = coins.shape
    groups = coins.reshape(r // 8, 8, width)
    packed = groups[:, 0] >> 7
    shifted = np.empty_like(packed)
    for k in range(1, 8):
        np.right_shift(groups[:, k], 7 - k, out=shifted)
        shifted &= 1 << k
        packed |= shifted
    columns = np.zeros((width + 1, r // 8), dtype=np.uint8)
    columns[1:] = packed.T
    return columns


def random_search(g: Graph, budget: int, seed: int) -> BaselineResult:
    """Best cut among `budget` uniform random assignments (first bit fixed to 0).

    Rows are drawn and scored _SEARCH_BLOCK_ROWS at a time, so memory stays
    bounded; the first best row over all blocks wins. The last block draws
    coins for a multiple of 8 rows and scores only the rows the budget asks for.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    start = time.perf_counter()
    width = g.n - 1
    bitgen = np.random.default_rng(seed).bit_generator
    best_cut, best_row = -1, None
    for lo in range(0, budget, _SEARCH_BLOCK_ROWS):
        rows = min(_SEARCH_BLOCK_ROWS, budget - lo)
        padded = -(-rows // 8) * 8
        coins = _coin_bytes(bitgen, padded * width).reshape(padded, width)
        cuts = column_cuts(g, _pack_rows(coins), rows)
        best = int(np.argmax(cuts))
        if cuts[best] > best_cut:
            best_cut, best_row = int(cuts[best]), coins[best] >> 7
    assignment = "0" + "".join("1" if b else "0" for b in best_row)
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
