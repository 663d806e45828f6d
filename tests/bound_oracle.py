"""Reference union bound: every ordered codeword pair, in (rows, J, n) tiles.

Test-side oracle for union_bound_ber's upper-triangle row walk. Same PEP
formula and Hamming weights, summed over both orders of each pair, so the
two agree to rounding."""

import math

import numpy as np

from spmofdm.analysis import BoundResult, _pep_diagonal


def union_bound_ber_pairs(codewords: np.ndarray, es_over_n0: float) -> BoundResult:
    """(1 / (f 2^f)) sum_{i,j} PEP(i->j) D(i,j) with every ordered pair
    enumerated; the (ci, J, n) broadcast is cut into 2^22-element tiles."""
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
