"""Generator for the ``leaf-wide`` workload: a chain of dense biconnected blocks.

Each block is a ring over ``size`` nodes plus random chords; consecutive
blocks share exactly one node (a cut vertex). Every block is therefore a
biconnected component, the separator search can only split at the shared
nodes, and each leaf of the partition tree is one whole block sitting at
the qubit budget ``k = size``. ``dcqaoa.chain_maxcut`` is exact on this
family because blocks meet at single nodes.
"""

from __future__ import annotations

import numpy as np

from dcqaoa import Graph

BLOCKS = 12
BLOCK_SIZE = 14
CHORD_PROB = 0.4


def leafwide_graph(
    seed: int,
    blocks: int = BLOCKS,
    size: int = BLOCK_SIZE,
    chord_prob: float = CHORD_PROB,
) -> Graph:
    """Chain of `blocks` ring-plus-chords blocks of `size` nodes, seeded."""
    if blocks < 1 or size < 3:
        raise ValueError("need at least one block of at least 3 nodes")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    joint = 0
    next_label = 1
    for _ in range(blocks):
        members = [joint] + list(range(next_label, next_label + size - 1))
        next_label += size - 1
        ring = [members[0]] + [members[1 + i] for i in rng.permutation(size - 1)]
        for i in range(size):
            u, v = ring[i], ring[(i + 1) % size]
            edges.add((min(u, v), max(u, v)))
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < chord_prob:
                    edges.add((members[i], members[j]))
        joint = members[1 + int(rng.integers(size - 1))]
    return Graph.from_edges(sorted(edges), nodes=range(next_label))
