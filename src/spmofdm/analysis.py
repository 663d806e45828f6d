"""Closed-form error-rate predictions: the union bound on BER.

The fading-averaged PEP uses the two-exponential Q approximation
Q(x) ~ exp(-x^2/2)/12 + exp(-2x^2/3)/4, which turns the average over
uncorrelated Rayleigh fading (the simulator's model) into two products
over the diagonal of Z_ij = (X_i - X_j)^H (X_i - X_j).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "union_bound_ber",
    "BoundResult",
]


def _pep_diagonal(z, g):
    """Uncorrelated-fading PEP of the squared differences z along the last
    axis: 1/12 / prod(1 + g z_n / 4) + 1/4 / prod(1 + g z_n / 3)."""
    return 1.0 / (12.0 * np.prod(1.0 + g * z / 4.0, axis=-1)) + 1.0 / (
        4.0 * np.prod(1.0 + g * z / 3.0, axis=-1)
    )


@dataclass(frozen=True)
class BoundResult:
    ber_bound: float
    pairs: int  # ordered pairs i != j summed: each unordered pair computed once, doubled


def union_bound_ber(codewords: np.ndarray, es_over_n0: float) -> BoundResult:
    """Union bound on BER under uncorrelated fading:
    (1 / (f 2^f)) sum_{i != j} PEP(i->j) D(i,j), where D is the Hamming
    distance between the f-bit words i and j (the codeword row index is the
    transmitted word). PEP and D are symmetric in (i, j), so each unordered
    pair is computed once, row by row over the upper triangle, and the sum
    is doubled.
    """
    X = np.asarray(codewords)
    J = X.shape[0]
    f = int(math.log2(J))
    if 1 << f != J:
        raise ValueError(f"codeword count {J} is not a power of two")
    words = np.arange(J, dtype=np.uint64)
    rows = [_pep_diagonal(np.abs(X[i + 1 :] - X[i]) ** 2, es_over_n0)
            @ np.bitwise_count(words[i + 1 :] ^ words[i]) for i in range(J - 1)]
    return BoundResult(ber_bound=2.0 * math.fsum(rows) / (f * J), pairs=J * (J - 1))
