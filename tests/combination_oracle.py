"""Lexicographic unranking of k-subsets, in plain Python.

Test-side oracle for the order in which the brute-force clique scan
streams its candidate subsets."""

import math


def unrank_combination(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of {0..n-1} with the given lexicographic rank."""
    total = math.comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    out = []
    c = 0
    r = rank
    for j in range(k, 0, -1):
        while True:
            block = math.comb(n - 1 - c, j - 1)
            if r < block:
                break
            r -= block
            c += 1
        out.append(c)
        c += 1
    return tuple(out)
