"""Closed-form error-rate predictions: pairwise error probabilities and
the union bound on BER.

The fading-averaged PEP uses the two-exponential Q approximation
Q(x) ~ exp(-x^2/2)/12 + exp(-2x^2/3)/4, which turns the average over
Rayleigh fading into two determinants; with uncorrelated fading (the
shipped simulator's model) the determinants reduce to products over the
diagonal of Z_ij = (X_i - X_j)^H (X_i - X_j). The union bound assumes
uncorrelated fading; pep_unconditional also takes a correlation matrix.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

__all__ = [
    "q_function",
    "pep_conditional",
    "pep_unconditional",
    "pep_asymptotic",
    "union_bound_ber",
    "BoundResult",
    "bound_csv_row",
]

_SUPPORT_TOL = 1e-12


def q_function(x):
    """Gaussian tail probability, exact via the complementary error function."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def pep_conditional(zij, h, es_over_n0: float) -> float:
    """PEP given the channel: Q(sqrt(Es/(2 N0) * sum_n z_n |h_n|^2))."""
    zij = np.asarray(zij, dtype=float)
    if np.any(zij < 0):
        raise ValueError("zij entries must be non-negative")
    arg = math.sqrt(es_over_n0 * float(np.sum(zij * np.abs(h) ** 2)) / 2.0)
    return float(q_function(arg))


def _pep_diagonal(z, g):
    """Uncorrelated-fading PEP of the squared differences z along the last
    axis: 1/12 / prod(1 + g z_n / 4) + 1/4 / prod(1 + g z_n / 3)."""
    return 1.0 / (12.0 * np.prod(1.0 + g * z / 4.0, axis=-1)) + 1.0 / (
        4.0 * np.prod(1.0 + g * z / 3.0, axis=-1)
    )


def pep_unconditional(zij, es_over_n0: float, corr: np.ndarray | None = None) -> float:
    """Fading-averaged PEP approximation.

    With corr=None the channel is uncorrelated and the expression is the
    diagonal product 1/12 / prod(1 + g z_n / 4) + 1/4 / prod(1 + g z_n / 3);
    a full correlation matrix switches to the two-determinant form.
    """
    zij = np.asarray(zij, dtype=float)
    g = es_over_n0
    if corr is None:
        return float(_pep_diagonal(zij, g))
    Z = np.diag(zij)
    eye = np.eye(len(zij))
    s4, d4 = np.linalg.slogdet(eye + (g / 4.0) * corr @ Z)
    s3, d3 = np.linalg.slogdet(eye + (g / 3.0) * corr @ Z)
    if s4 <= 0 or s3 <= 0:
        raise ValueError("correlation matrix must keep the determinants positive")
    return math.exp(-d4) / 12.0 + math.exp(-d3) / 4.0


def pep_asymptotic(zij, es_over_n0: float) -> float:
    """High-SNR PEP: drop the +1 terms over the support of zij. Decays like
    (Es/N0)^(-|support|), i.e. the diversity order is the support size."""
    zij = np.asarray(zij, dtype=float)
    support = zij[zij > _SUPPORT_TOL]
    if support.size == 0:
        raise ValueError("asymptotic PEP undefined for zij = 0")
    g = es_over_n0
    p4 = float(np.prod(g * support / 4.0))
    p3 = float(np.prod(g * support / 3.0))
    return 1.0 / (12.0 * p4) + 1.0 / (4.0 * p3)


@dataclass(frozen=True)
class BoundResult:
    snr_db: float
    ber_bound: float
    pairs: int
    exact: bool


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
    return BoundResult(
        snr_db=10.0 * math.log10(g), ber_bound=total / (f * J), pairs=J * (J - 1),
        exact=True,
    )


def bound_csv_row(res: BoundResult) -> str:
    return f"{res.snr_db:.9g},{res.ber_bound:.9g},{res.pairs},{1 if res.exact else 0}"
