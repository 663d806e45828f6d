"""Reference Hamming graph: the distance matrix summed column by column.

Test-side oracle for selection.build_hamming_graph, which finds the
distance-1 pairs by grouping the patterns that agree off one position
instead of forming every pairwise distance."""

import numpy as np


def hamming_adjacency(patterns) -> np.ndarray:
    """Adjacency under the distance >= 2 rule, from the L x L distances."""
    pats = np.array([tuple(p) for p in patterns])
    L, n = pats.shape
    diff = np.zeros((L, L), dtype=np.min_scalar_type(n))  # Hamming distances
    for col in pats.T:
        diff += col[:, None] != col
    return diff >= 2
