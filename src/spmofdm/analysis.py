"""Closed-form error-rate predictions: the union bound on BER.

The fading-averaged PEP uses the two-exponential Q approximation
Q(x) ~ exp(-x^2/2)/12 + exp(-2x^2/3)/4, which turns the average over
uncorrelated Rayleigh fading (the simulator's model) into two products
over the diagonal of Z_ij = (X_i - X_j)^H (X_i - X_j). Each product is
one factor per subcarrier, so the sum over codeword pairs is a Kronecker
quadratic form over the per-subcarrier alphabets of the codeword table.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebook import MAX_CONTRACTION_SIZE, Scheme, column_alphabets

__all__ = [
    "union_bound_ber",
    "BoundResult",
]

# (c, den) of the Q approximation's terms: c / prod_t (1 + g z_t / den)
_Q_TERMS = ((1.0 / 12.0, 4.0), (1.0 / 4.0, 3.0))

# _bound_contraction's cost per f prod U sum U against the row walk's per
# pair-subcarrier: 0.015-0.075 measured on dense and sparse tables, 0.1
# errs toward the walk
_BOUND_WEIGHT = 0.1


def _pep_diagonal(z, g):
    """Uncorrelated-fading PEP of the squared differences z along the last
    axis: 1/12 / prod(1 + g z_n / 4) + 1/4 / prod(1 + g z_n / 3)."""
    return 1.0 / (12.0 * np.prod(1.0 + g * z / 4.0, axis=-1)) + 1.0 / (
        4.0 * np.prod(1.0 + g * z / 3.0, axis=-1)
    )


@dataclass(frozen=True)
class BoundResult:
    ber_bound: float
    pairs: int  # ordered pairs i != j the sum covers, J(J - 1)


def union_bound_ber(codewords: Scheme | np.ndarray, es_over_n0: float) -> BoundResult:
    """Union bound on BER under uncorrelated fading:
    (1 / (f 2^f)) sum_{i != j} PEP(i->j) D(i,j), where D is the Hamming
    distance between the f-bit words i and j (the codeword row index is the
    transmitted word). PEP and D are symmetric in (i, j), so the sum is
    twice the sum over unordered pairs.

    D(i,j) counts the bits b set in one word and clear in the other, and
    each PEP term is a product over subcarriers of A_t[x_t, y_t] =
    1/(1 + g|u_x - u_y|^2/den) on the alphabets u_t of column t. So with
    T1_b, T0_b the counts over code tuples of the rows whose bit b is set
    or clear, the sum is 2 sum_c c sum_b <T1_b, (A_0 x ... x A_{n-1}) T0_b>:
    n tensordots per bit and term. Every term is nonnegative, and i = j
    never pairs a set bit with a clear one. Where that contraction costs
    more than the pair walk (column_alphabets), the upper triangle of
    codeword pairs is walked row by row instead. codewords is a Scheme or
    a (J, n) codeword table such as its codewords.
    """
    X = np.asarray(codewords.codewords if isinstance(codewords, Scheme) else codewords)
    J = X.shape[0]
    f = int(math.log2(J))
    if 1 << f != J:
        raise ValueError(f"codeword count {J} is not a power of two")
    g = es_over_n0
    alphabets = column_alphabets(X, weight=_BOUND_WEIGHT * f)
    if alphabets is None:
        words = np.arange(J, dtype=np.uint64)
        parts = [_pep_diagonal(np.abs(X[i + 1 :] - X[i]) ** 2, g)
                 @ np.bitwise_count(words[i + 1 :] ^ words[i]) for i in range(J - 1)]
    else:
        parts = _bound_contraction(*alphabets, f, g)
    return BoundResult(ber_bound=2.0 * math.fsum(parts) / (f * J), pairs=J * (J - 1))


def _bound_contraction(d2, rows, shape, f, g):
    """The parts of sum_c c sum_b <T1_b, (A_0 x ... x A_{n-1}) T0_b>, bits
    in blocks that keep the T0 tensors within MAX_CONTRACTION_SIZE."""
    size = math.prod(shape)
    counts = np.bincount(rows, minlength=size).reshape(*shape, 1)
    words = np.arange(rows.size)
    parts = []
    step = max(1, MAX_CONTRACTION_SIZE // size)  # bits per block of T0 tensors
    for lo in range(0, f, step):
        nb = min(step, f - lo)
        bits = (words[:, None] >> np.arange(lo, lo + nb)) & 1
        slots = (rows[:, None] * nb + np.arange(nb)).ravel()
        ones = np.bincount(slots, weights=bits.ravel(), minlength=size * nb)
        ones = ones.reshape(*shape, nb)
        ones_first = np.moveaxis(ones, -1, 0)
        for c, den in _Q_TERMS:
            t0 = counts - ones  # (*U, nb); each tensordot moves its axis last
            for z in d2:
                t0 = np.tensordot(t0, 1.0 / (1.0 + g * z / den), axes=(0, 0))
            parts.append(c * float((ones_first * t0).sum()))
    return parts
