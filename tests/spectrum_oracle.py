"""Reference clique bound: the full adjacency spectrum.

Test-side oracle for HammingGraph.clique_bound, which reads the same count
as an inertia off one LDL^T factorisation instead of solving for every
eigenvalue."""

import numpy as np

from spmofdm.selection import EIG_TOL, HammingGraph


def adjacency_eigenvalues(graph: HammingGraph) -> np.ndarray:
    """Adjacency eigenvalues, ascending."""
    return np.linalg.eigvalsh(graph.adjacency.astype(np.float64))


def eigenvalue_bound(graph: HammingGraph) -> int:
    """The bound's definition, counted on the full spectrum:
    1 + #(eigenvalues <= -1 + EIG_TOL)."""
    return int((adjacency_eigenvalues(graph) <= -1.0 + EIG_TOL).sum()) + 1
