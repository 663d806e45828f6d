"""Constellation family geometry: energies, disjointness, distances."""

import math

import numpy as np
import pytest

from spmofdm.constellations import ConstellationFamily, psk_family, qam_family


def min_cross_distance(family: ConstellationFamily) -> float:
    """Smallest distance between symbols of two different members."""
    if family.K < 2:
        raise ValueError("cross distance undefined for a single-member family")
    best = math.inf
    for a in range(family.K):
        for b in range(a + 1, family.K):
            d = np.abs(family.members[a][:, None] - family.members[b][None, :])
            best = min(best, float(d.min()))
    return best


def min_intra_distance(family: ConstellationFamily) -> float:
    """Smallest distance between two symbols of the same member."""
    best = math.inf
    for m in family.members:
        if len(m) < 2:
            continue
        d = np.abs(m[:, None] - m[None, :])
        np.fill_diagonal(d, np.inf)
        best = min(best, float(d.min()))
    if not math.isfinite(best):
        raise ValueError("intra distance undefined: no member has two symbols")
    return best


def export_family(family: ConstellationFamily) -> str:
    """Text dump: one 're im' line per symbol, blank line between members."""
    blocks = []
    for m in family.members:
        blocks.append("\n".join(f"{s.real:.12g} {s.imag:.12g}" for s in m))
    return "\n\n".join(blocks) + "\n"


def brute_min_cross(family):
    best = math.inf
    for a in range(family.K):
        for b in range(family.K):
            if a == b:
                continue
            for x in family.members[a]:
                for y in family.members[b]:
                    best = min(best, abs(x - y))
    return best


def brute_min_intra(family):
    best = math.inf
    for m in family.members:
        for i in range(len(m)):
            for j in range(i + 1, len(m)):
                best = min(best, abs(m[i] - m[j]))
    return best


class TestPsk:
    def test_bpsk_plain(self):
        fam = psk_family(2, 1, 1)
        assert sorted(np.round(fam.members[0], 12)) == [-1, 1]

    def test_bpsk_two_of_four_slots(self):
        fam = psk_family(2, 2, 4)
        rot = np.exp(1j * np.pi / 4)
        assert np.allclose(sorted(fam.members[1], key=np.angle),
                           sorted(rot * fam.members[0], key=np.angle))

    def test_qpsk_four_slots_distances(self):
        fam = psk_family(4, 4, 4)
        assert min_cross_distance(fam) == pytest.approx(2 * math.sin(math.pi / 16), abs=1e-12)
        assert min_intra_distance(fam) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert min_cross_distance(fam) == pytest.approx(brute_min_cross(fam))
        assert min_intra_distance(fam) == pytest.approx(brute_min_intra(fam))

    def test_unit_energy(self):
        for fam in (psk_family(2, 2, 4), psk_family(4, 4, 4), psk_family(8, 3, 8)):
            for m in fam.members:
                assert abs(np.mean(np.abs(m) ** 2) - 1.0) < 1e-12

    def test_matches_multimode_rotation_rule(self):
        # K = G = N: member k must be the base ring rotated by 2k pi/(M N)
        n, M = 4, 4
        fam = psk_family(M, n, n)
        base = np.exp(1j * 2 * np.pi * np.arange(M) / M)
        for k in range(n):
            expect = base * np.exp(1j * 2 * k * np.pi / (M * n))
            got = np.sort_complex(fam.members[k])
            assert np.allclose(np.sort_complex(expect), got, atol=1e-12)

    def test_gray_adjacency(self):
        fam = psk_family(8, 1, 1)
        pts = fam.members[0]
        # angular neighbors must differ in exactly one bit of their label
        by_angle = np.argsort(np.angle(pts) % (2 * np.pi))
        for i in range(8):
            a, b = by_angle[i], by_angle[(i + 1) % 8]
            assert bin(int(a) ^ int(b)).count("1") == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            psk_family(3, 1, 1)
        with pytest.raises(ValueError):
            psk_family(4, 5, 4)


class TestDerivedSizes:
    def test_m_and_k_follow_members(self):
        for fam, M, K in ((psk_family(8, 3, 4), 8, 3), (qam_family(2), 4, 4),
                          (ConstellationFamily(members=(np.ones(4), np.zeros(1))), 4, 2)):
            assert (fam.M, fam.K) == (M, K)
            with pytest.raises(AttributeError):
                fam.M = 2
            with pytest.raises(AttributeError):
                fam.K = 1


class TestQam:
    def test_parent_16(self):
        fam = qam_family(0)
        assert fam.K == 1 and len(fam.members[0]) == 16
        assert abs(np.mean(np.abs(fam.members[0]) ** 2) - 1.0) < 1e-12
        assert min_intra_distance(fam) == pytest.approx(2 / math.sqrt(10), abs=1e-12)

    def test_four_cosets(self):
        fam = qam_family(2)
        assert fam.K == 4 and all(len(m) == 4 for m in fam.members)
        assert min_intra_distance(fam) == pytest.approx(4 / math.sqrt(10), abs=1e-12)
        assert min_cross_distance(fam) == pytest.approx(2 / math.sqrt(10), abs=1e-12)
        assert min_cross_distance(fam) == pytest.approx(brute_min_cross(fam))
        for m in fam.members:
            assert abs(np.mean(np.abs(m) ** 2) - 1.0) < 1e-12

    def test_distance_doubling(self):
        d0 = min_intra_distance(qam_family(0))
        d1 = min_intra_distance(qam_family(1))
        d2 = min_intra_distance(qam_family(2))
        assert d1 == pytest.approx(d0 * math.sqrt(2), abs=1e-9)
        assert d2 == pytest.approx(d1 * math.sqrt(2), abs=1e-9)

    def test_coset_union_is_parent(self):
        parent = np.sort_complex(qam_family(0).members[0])
        cosets = qam_family(2)
        union = np.sort_complex(np.concatenate(cosets.members))
        assert np.allclose(parent, union, atol=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            qam_family(5)


class TestDistances:
    def test_disjointness_everywhere(self):
        fams = [
            psk_family(2, 2, 4),
            psk_family(4, 4, 4),
            psk_family(2, 4, 4),
            qam_family(1),
            qam_family(2),
        ]
        for fam in fams:
            assert min_cross_distance(fam) > 1e-9

    def test_single_bpsk(self):
        fam = psk_family(2, 1, 1)
        assert min_intra_distance(fam) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError):
            min_cross_distance(fam)


class TestExport:
    def test_format(self):
        fam = psk_family(2, 2, 4)
        text = export_family(fam)
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2
        first = blocks[0].splitlines()
        assert len(first) == 2
        re_part, im_part = first[0].split()
        float(re_part), float(im_part)  # parses
