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
    pairs: int  # ordered codeword pairs i != j, all summed


def union_bound_ber(codewords: np.ndarray, es_over_n0: float) -> BoundResult:
    """Union bound on BER under uncorrelated fading:
    (1 / (f 2^f)) sum_{i,j} PEP(i->j) D(i,j), where D is the Hamming
    distance between the f-bit words i and j (the codeword row index is the
    transmitted word). Every ordered pair is enumerated.
    """
    X = np.asarray(codewords)
    J, n = X.shape
    f = int(math.log2(J))
    if 1 << f != J:
        raise ValueError(f"codeword count {J} is not a power of two")
    g = es_over_n0

    words = np.arange(J, dtype=np.uint64)
    chunk = max(1, (1 << 22) // (J * n))
    partials = []
    for lo in range(0, J, chunk):
        hi = min(J, lo + chunk)
        z = np.abs(X[lo:hi, None, :] - X[None, :, :]) ** 2  # (ci, J, n)
        pep = _pep_diagonal(z, g)
        d = np.bitwise_count(words[lo:hi, None] ^ words[None, :]).astype(float)
        partials.append(float((pep * d).sum()))  # i == j pairs carry D = 0
    total = math.fsum(partials)
    return BoundResult(ber_bound=total / (f * J), pairs=J * (J - 1))
