"""PEP formulas against quadrature oracles; union bound properties."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from spmofdm.analysis import _pep_diagonal, union_bound_ber
from spmofdm.codebook import build_scheme

from bound_oracle import union_bound_ber_pairs

_SUPPORT_TOL = 1e-12


def q_function(x):
    """Oracle: Gaussian tail probability, exact via the complementary error
    function."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def pep_conditional(zij, h, es_over_n0):
    """Oracle: PEP given the channel, Q(sqrt(Es/(2 N0) * sum_n z_n |h_n|^2))."""
    zij = np.asarray(zij, dtype=float)
    if np.any(zij < 0):
        raise ValueError("zij entries must be non-negative")
    arg = math.sqrt(es_over_n0 * float(np.sum(zij * np.abs(h) ** 2)) / 2.0)
    return float(q_function(arg))


def pep_asymptotic(zij, es_over_n0):
    """Oracle: high-SNR PEP, the +1 terms dropped over the support of zij.
    Decays like (Es/N0)^(-|support|): the diversity order is the support
    size."""
    zij = np.asarray(zij, dtype=float)
    support = zij[zij > _SUPPORT_TOL]
    if support.size == 0:
        raise ValueError("asymptotic PEP undefined for zij = 0")
    g = es_over_n0
    p4 = float(np.prod(g * support / 4.0))
    p3 = float(np.prod(g * support / 3.0))
    return 1.0 / (12.0 * p4) + 1.0 / (4.0 * p3)


def exact_bpsk_pep(es_over_n0):
    """Oracle: E over Rayleigh fading of the conditional PEP for the
    two-codeword BPSK book (z = 4), by numerical quadrature."""
    def integrand(x):
        return float(q_function(math.sqrt(es_over_n0 * 4 * x / 2.0))) * math.exp(-x)

    val, _ = integrate.quad(integrand, 0, np.inf)
    return val


class TestQFunction:
    def test_against_quadrature(self):
        # independent Gaussian-tail integral at argument 1.0
        tail, _ = integrate.quad(
            lambda t: math.exp(-(t**2) / 2.0) / math.sqrt(2 * math.pi), 1.0, np.inf
        )
        assert abs(float(q_function(1.0)) - tail) < 1e-12


class TestConditionalPep:
    def test_zero_difference(self):
        assert pep_conditional(np.zeros(4), np.ones(4), 10.0) == pytest.approx(0.5)

    def test_monotone_vanishing(self):
        h = np.ones(2)
        z = np.array([4.0, 4.0])
        vals = [pep_conditional(z, h, 10 ** (db / 10)) for db in (0, 10, 20, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-9


class TestUnconditionalPep:
    def test_zero_difference(self):
        assert _pep_diagonal(np.zeros(3), 123.0) == pytest.approx(1 / 3)

    def test_bpsk_within_15pct_of_exact(self):
        z = np.array([4.0])
        for db in (5, 10, 15, 20, 25, 30):
            g = 10 ** (db / 10)
            approx = _pep_diagonal(z, g)
            exact = exact_bpsk_pep(g)
            assert abs(approx - exact) / exact < 0.15
        # and the quadrature oracle itself matches the closed form
        g = 10.0
        closed = 0.5 * (1 - math.sqrt(g / (1 + g)))
        assert exact_bpsk_pep(g) == pytest.approx(closed, rel=1e-9)

    def test_range_and_monotonicity(self):
        z = np.array([1.0, 3.0])
        vals = [_pep_diagonal(z, 10 ** (db / 10)) for db in range(-10, 41, 5)]
        assert all(0 < v <= 1 / 3 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAsymptoticPep:
    def test_ratio_approaches_one(self):
        z = np.array([4.0, 4.0])
        g = 10 ** 4.0  # 40 dB
        assert _pep_diagonal(z, g) / pep_asymptotic(z, g) == pytest.approx(1.0, abs=0.01)

    def test_diversity_two_slope(self):
        z = np.array([4.0, 4.0])
        assert pep_asymptotic(z, 10**3) / pep_asymptotic(z, 10**4) == pytest.approx(100.0)

    def test_diversity_one_slope(self):
        z = np.array([4.0, 0.0])
        assert pep_asymptotic(z, 10**3) / pep_asymptotic(z, 10**4) == pytest.approx(10.0)

    def test_zero_signaled(self):
        with pytest.raises(ValueError):
            pep_asymptotic(np.zeros(2), 10.0)


class TestUnionBound:
    def test_two_codeword_book(self):
        book = np.array([[1.0 + 0j], [-1.0 + 0j]])
        g = 10.0
        res = union_bound_ber(book, g)
        assert res.pairs == 2
        assert res.ber_bound == pytest.approx(_pep_diagonal(np.array([4.0]), g))

    def test_xor_relabeling_invariance(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        g = 100.0
        base = union_bound_ber(scheme.codewords, g).ber_bound
        for mask in (0b1, 0b101010, 0b111111):
            perm = np.arange(scheme.codewords.shape[0]) ^ mask
            relabeled = scheme.codewords[perm]
            assert union_bound_ber(relabeled, g).ber_bound == pytest.approx(base, rel=1e-12)

    def test_deterministic(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        a = union_bound_ber(scheme.codewords, 50.0)
        b = union_bound_ber(scheme.codewords, 50.0)
        assert a == b

    def test_index_only_events_have_diversity_two(self):
        # selected codebook: any two codewords with the same modulation word
        # but different patterns differ in >= 2 positions
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg2")
        X = scheme.codewords
        f2 = scheme.f2
        for i in range(0, X.shape[0], 1 << f2):
            for j in range(0, X.shape[0], 1 << f2):
                if i == j:
                    continue
                z = np.abs(X[i] - X[j]) ** 2
                assert (z > 1e-12).sum() >= 2

    @pytest.mark.parametrize("variant", [
        dict(variant="ofdm-im", n=4, n_active=2, m=4),  # the null point carries 0 bits
        dict(variant="mm", n=2, m=2),
        dict(variant="ospm", n=4, k=2, m=2, selection="alg1"),
        dict(variant="fspm", n=3, m=4, constellation="qam"),
        dict(variant="ofspm", n=4, m=2, selection="alg2"),  # J = 512
    ], ids=lambda v: "-".join(str(x) for x in v.values()))
    def test_matches_pair_oracle(self, variant):
        X = build_scheme(**variant).codewords
        for db in (0.0, 20.0, 40.0):
            g = 10 ** (db / 10)
            got, ref = union_bound_ber(X, g), union_bound_ber_pairs(X, g)
            assert got.pairs == ref.pairs == X.shape[0] * (X.shape[0] - 1)
            assert abs(got.ber_bound - ref.ber_bound) <= 1e-12 * ref.ber_bound
