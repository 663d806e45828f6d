"""Reference alg2 (vertex exclusion): degrees over the remaining vertices.

Test-side oracle for selection.vertex_exclusion's missing-neighbour count
over the non-neighbour lists. Same rule: drop a minimum-degree vertex
(ties: lowest index) until the remaining vertices are pairwise adjacent."""

import numpy as np

from spmofdm.selection import HammingGraph


def vertex_exclusion_degrees(graph: HammingGraph) -> tuple[int, ...]:
    """The clique's vertex indices, ascending. Degrees are updated
    incrementally; each step rescans the remaining vertices."""
    adj = graph.adjacency
    L = graph.order
    active = np.ones(L, dtype=bool)
    deg = adj.sum(axis=1)
    remaining = L
    while True:
        idx = np.nonzero(active)[0]
        degs = deg[idx]
        if (degs == remaining - 1).all():
            break
        vmin = idx[int(np.argmin(degs))]  # argmin returns the first minimum
        active[vmin] = False
        deg[adj[vmin]] -= 1
        remaining -= 1
    return tuple(int(i) for i in np.nonzero(active)[0])
