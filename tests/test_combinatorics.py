"""Counting and enumeration, cross-checked against brute-force oracles."""

import itertools
import math
import sys
import threading
import tracemalloc

import pytest

from spmofdm import combinatorics
from spmofdm.combinatorics import (
    bell,
    enumerate_ordered_partitions,
    enumerate_partitions,
    floor_log2,
    lambert_w,
    optimal_k,
    optimal_k_ordered,
    ordered_bell,
    stirling2,
)

from combination_oracle import unrank_combination


def stirling2_explicit(n, k):
    """Oracle: S(n, k) by the alternating binomial sum, exact in integers."""
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    q, r = divmod(total, math.factorial(k))
    assert r == 0
    return q


def rank_combination(subset, n):
    """Oracle: lexicographic rank of a strictly increasing k-subset of
    {0..n-1}, the inverse of unrank_combination."""
    k = len(subset)
    rank = 0
    prev = -1
    for j, c in enumerate(subset):
        if c <= prev or c >= n:
            raise ValueError(f"subset must be strictly increasing within [0, {n})")
        for x in range(prev + 1, c):
            rank += math.comb(n - 1 - x, k - j - 1)
        prev = c
    return rank


def brute_force_partitions(n, k):
    """Oracle: all k^n label assignments, keep surjective canonical ones."""
    out = []
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        mx = -1
        ok = True
        for lab in labels:
            if lab > mx + 1:
                ok = False
                break
            mx = max(mx, lab)
        if ok:
            out.append(labels)
    return out


class TestCounts:
    def test_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(3, 2) == 3
        for n in (1, 2, 5, 17):
            assert stirling2(n, 1) == 1
            assert stirling2(n, n) == 1

    def test_two_block_closed_form(self):
        for n in range(2, 17):
            assert stirling2(n, 2) == 2 ** (n - 1) - 1

    def test_explicit_sum_equals_recurrence(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert stirling2_explicit(n, k) == stirling2(n, k)

    def test_bell(self):
        assert bell(1) == 1
        assert bell(3) == 5
        assert bell(4) == 15

    def test_bell_identity(self):
        for n in range(1, 31):
            assert bell(n) == sum(stirling2(n, k) for k in range(1, n + 1))

    def test_ordered_bell(self):
        assert ordered_bell(1) == 1
        assert ordered_bell(3) == 13
        assert ordered_bell(4) == 75
        assert ordered_bell(5) == 541
        assert ordered_bell(6) == 4683

    def test_ordered_bell_identity(self):
        for n in range(1, 21):
            assert ordered_bell(n) == sum(
                math.factorial(k) * stirling2(n, k) for k in range(1, n + 1)
            )

    def test_ordered_bell_exceeds_factorial(self):
        for n in range(2, 21):
            assert ordered_bell(n) > math.factorial(n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stirling2(3, 0)
        with pytest.raises(ValueError):
            stirling2(3, 4)
        with pytest.raises(ValueError):
            bell(0)
        with pytest.raises(ValueError):
            ordered_bell(0)
        for fn in (bell, ordered_bell, optimal_k, optimal_k_ordered,
                   combinatorics.stirling2_row):
            with pytest.raises(ValueError, match="n must be >= 1, got 0"):
                fn(0)


    def test_triangle_rows_under_threads(self, monkeypatch):
        # each call builds from a snapshot of the kept row: threads racing
        # up and down from a fresh cache must each get their own exact row
        monkeypatch.setattr(combinatorics, "_ROW", (1,))
        tops = [150, 120, 150, 90, 150, 130, 150, 60]
        start = threading.Barrier(len(tops), timeout=60)
        rows, errors = {}, []

        def work(i, top):
            try:
                start.wait()
                rows[i] = combinatorics.stirling2_row(top)
            except Exception as e:  # reported below, from the main thread
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=it) for it in enumerate(tops)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(combinatorics._ROW) in tops
        for i, top in enumerate(tops):
            assert rows[i] == tuple(stirling2_explicit(top, k) for k in range(1, top + 1))
        for n in (1, 2, 17, 64, 149, 150):
            assert combinatorics.stirling2_row(n) == tuple(
                stirling2_explicit(n, k) for k in range(1, n + 1))

    def test_cache_holds_one_row(self, monkeypatch):
        # a sweep to n keeps one row of n big integers, not the n(n+1)/2 of
        # the whole triangle
        monkeypatch.setattr(combinatorics, "_ROW", (1,))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            row = combinatorics.stirling2_row(400)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert combinatorics._ROW is row
        assert held < 1 << 20, held  # the whole triangle to 400 is over 10 MB


class TestEnumeration:
    def test_four_two_worked_example(self):
        got = list(enumerate_partitions(4, 2))
        assert len(got) == 7
        assert (0, 1, 1, 1) in got  # one singleton block up front
        assert (0, 0, 1, 1) in got  # split down the middle
        assert got == sorted(got)  # lexicographic
        assert len(set(got)) == 7

    def test_all_singletons(self):
        assert list(enumerate_partitions(3, 3)) == [(0, 1, 2)]

    def test_single_element(self):
        assert list(enumerate_partitions(1, 1)) == [(0,)]

    def test_against_brute_force(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                got = list(enumerate_partitions(n, k))
                assert got == sorted(brute_force_partitions(n, k))
                assert len(got) == stirling2(n, k)

    def test_six_three_count(self):
        assert len(list(enumerate_partitions(6, 3))) == len(brute_force_partitions(6, 3)) == 90

    def test_counts_match_formula(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                got = list(enumerate_partitions(n, k))
                assert len(got) == stirling2(n, k)
                assert len(set(got)) == len(got)

    def test_rgs_canonical_form(self):
        for n, k in ((5, 3), (6, 4), (7, 2)):
            for labels in enumerate_partitions(n, k):
                assert labels[0] == 0
                mx = 0
                for lab in labels:
                    assert lab <= mx + 1
                    mx = max(mx, lab)
                assert mx == k - 1


class TestOrderedEnumeration:
    def test_three_two_worked_example(self):
        got = list(enumerate_ordered_partitions(3, 2))
        expected = {(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert set(got) == expected
        assert len(got) == 6

    def test_four_two_count(self):
        got = list(enumerate_ordered_partitions(4, 2))
        assert len(got) == 14
        assert len(set(got)) == 14

    def test_two_two(self):
        assert set(enumerate_ordered_partitions(2, 2)) == {(0, 1), (1, 0)}

    def test_is_permutation_closure(self):
        for n in range(1, 9):
            for k in range(1, min(n, 5) + 1):
                canon = list(enumerate_partitions(n, k))
                closure = set()
                for p in canon:
                    for perm in itertools.permutations(range(k)):
                        closure.add(tuple(perm[x] for x in p))
                got = list(enumerate_ordered_partitions(n, k))
                assert len(got) == len(set(got))
                assert set(got) == closure
                assert len(got) == math.factorial(k) * stirling2(n, k)

    def test_deterministic_order(self):
        assert list(enumerate_ordered_partitions(5, 3)) == list(
            enumerate_ordered_partitions(5, 3)
        )


class TestCombinationRanking:
    def test_first_and_last(self):
        assert unrank_combination(0, 5, 3) == (0, 1, 2)
        assert unrank_combination(math.comb(5, 3) - 1, 5, 3) == (2, 3, 4)

    def test_round_trip_exhaustive(self):
        n, k = 8, 4
        seen = []
        for r in range(math.comb(n, k)):
            sub = unrank_combination(r, n, k)
            assert rank_combination(sub, n) == r
            seen.append(sub)
        assert seen == sorted(seen)  # lexicographic order
        assert len(set(seen)) == 70

    def test_range_error(self):
        with pytest.raises(ValueError):
            unrank_combination(math.comb(6, 2), 6, 2)
        with pytest.raises(ValueError):
            unrank_combination(-1, 6, 2)


class TestOptimalK:
    def test_lambert_w_defining_equation(self):
        for x in (0.5, 1.0, 4.0, 10.0, 123.0, 1200.0):
            w = lambert_w(x)
            assert abs(w * math.exp(w) - x) < 1e-10 * max(1.0, x)

    def test_n_four(self):
        res = optimal_k(4)
        assert res.argmax == 2  # S(4,2)=7 beats S(4,3)=6
        assert set(res.candidates) == {2, 3}

    def test_n_one(self):
        assert optimal_k(1).argmax == 1

    def test_n_ten(self):
        res = optimal_k(10)
        assert res.argmax == 5
        assert 5 in res.candidates

    def test_argmax_in_lambert_pair(self):
        # verified up to 300 here; the relation is reported to hold to 1200
        for n in range(1, 301):
            res = optimal_k(n)
            assert res.argmax in res.candidates, (n, res)

    def test_argmax_is_exact(self):
        for n in range(1, 41):
            row = [stirling2(n, k) for k in range(1, n + 1)]
            assert row[optimal_k(n).argmax - 1] == max(row)

    def test_ordered_argmax_is_exact(self):
        for n in range(1, 41):
            vals = [math.factorial(k) * stirling2(n, k) for k in range(1, n + 1)]
            assert vals[optimal_k_ordered(n) - 1] == max(vals)


class TestFloorLog2:
    def test_exact_at_powers_of_two(self):
        for e in range(0, 200):
            assert floor_log2(2**e) == e
            if e > 0:
                assert floor_log2(2**e + 1) == e
                assert floor_log2(2**e - 1) == e - 1

    def test_error(self):
        with pytest.raises(ValueError):
            floor_log2(0)
