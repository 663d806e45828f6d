"""Exact counting and enumeration of set partitions.

Counts are plain Python ints, so everything is exact at any size. A
partition of an n-element set is encoded as a label vector: entry i names
the block containing element i. Unordered partitions use the restricted
growth string (RGS) canonical form (labels[0] == 0 and each new label is
the smallest unused integer), so there is exactly one vector per
partition. Ordered partitions are arbitrary surjective labelings, K! of
them per underlying partition into K blocks.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

# Enumeration guard. Counting works for any n; enumerating label vectors
# beyond this is never a desk-scale operation (bell(24) ~ 4.5e17).
MAX_ENUM_N = 24
# Counting guard for the variant table: the Stirling triangle up to n = 1000
# takes a few seconds to build.
MAX_COUNT_N = 1000

__all__ = [
    "stirling2",
    "stirling2_row",
    "bell",
    "ordered_bell",
    "enumerate_partitions",
    "enumerate_ordered_partitions",
    "lambert_w",
    "optimal_k",
    "optimal_k_ordered",
    "floor_log2",
    "OptimalK",
]


def _check_nk(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")


# The last row of the Stirling triangle built. Each call reads it once and
# rebinds it whole, so threads racing on it each get their own exact row.
_ROW = (1,)


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row (S(n,1), ..., S(n,n)) of the Stirling-number triangle, built on
    from the kept row when that is no longer than n, else from row 1; the
    result becomes the kept row."""
    global _ROW
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    row = _ROW if len(_ROW) <= n else (1,)
    while len(row) < n:
        mid = (k * row[k - 1] + row[k - 2] for k in range(2, len(row) + 1))
        row = (1, *mid, 1)
    _ROW = row
    return row


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k non-empty blocks."""
    _check_nk(n, k)
    return stirling2_row(n)[k - 1]


def bell(n: int) -> int:
    """Total number of partitions of an n-element set."""
    return sum(stirling2_row(n))


def ordered_bell(n: int) -> int:
    """Number of ordered partitions (partitions with ordered blocks)."""
    return sum(math.factorial(k + 1) * s for k, s in enumerate(stirling2_row(n)))


def enumerate_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield the canonical RGS label vectors of all partitions of an n-set
    into k blocks, in lexicographic order. Yields exactly stirling2(n, k)
    distinct vectors."""
    _check_nk(n, k)
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUM_N}, got {n}")

    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if used == k:
                yield tuple(labels)
            return
        if used + (n - i) < k:  # cannot reach k blocks any more
            return
        top = min(used, k - 1)
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    return rec(1, 1)


def enumerate_ordered_partitions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield all surjective label vectors [n] -> [k] (ordered partitions into
    k blocks): every canonical partition under every one of the k! label
    permutations. Order is canonical-partition-major, permutations in
    lexicographic order within; k! * stirling2(n, k) vectors total."""
    _check_nk(n, k)
    perms = list(itertools.permutations(range(k)))
    for canon in enumerate_partitions(n, k):
        for perm in perms:
            yield tuple(perm[x] for x in canon)


_LAMBERT_TOL = 1e-12  # relative Newton step at which lambert_w stops
_LAMBERT_MAX_ITER = 50


def lambert_w(x: float) -> float:
    """Principal branch of the Lambert W function for x > 0 via Newton
    iteration from the starting guess ln(1 + x)."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    w = math.log1p(x)
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (w + 1))
        w -= step
        if abs(step) <= _LAMBERT_TOL * max(1.0, abs(w)):
            return w
    raise RuntimeError(f"lambert_w({x}) did not converge in {_LAMBERT_MAX_ITER} iterations")


@dataclass(frozen=True)
class OptimalK:
    """Block count maximizing stirling2(n, .): the floor/ceil candidate pair
    from the Lambert-W formula plus the exact argmax."""

    candidates: tuple[int, ...]
    argmax: int


def optimal_k(n: int) -> OptimalK:
    """Candidates {floor(e^W(n) - 1), ceil(e^W(n) - 1)} plus the argmax of
    stirling2(n, .) found by exact comparison. For n = 1 the floor
    candidate is 0, which is outside the valid k range but kept so the
    reported pair is exactly the formula's."""
    row = stirling2_row(n)
    t = math.exp(lambert_w(float(n))) - 1.0
    candidates = tuple(sorted({math.floor(t), math.ceil(t)}))
    argmax = max(range(n), key=lambda i: (row[i], -i)) + 1
    return OptimalK(candidates=candidates, argmax=argmax)


def optimal_k_ordered(n: int) -> int:
    """Block count maximizing k! * stirling2(n, k), by exact comparison."""
    row = stirling2_row(n)
    vals = [math.factorial(k + 1) * s for k, s in enumerate(row)]
    return max(range(n), key=lambda i: (vals[i], -i)) + 1


def floor_log2(x: int) -> int:
    """floor(log2(x)) for a positive integer, bit-exact (no floating point)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return x.bit_length() - 1
