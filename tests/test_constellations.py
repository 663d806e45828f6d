"""Constellation family geometry: energies, disjointness, distances."""

import hashlib
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
        # unit energy would put the 16 one-point cosets on 12 points
        with pytest.raises(ValueError):
            qam_family(4)

    # sha256 of each member's bytes, recorded from the subset-list builder
    # with its unit-energy rescale that the per-point split loop replaced
    DIGESTS = {
        0: ["699fba4b7ac8e9cbd1ab323653e03e52682d97dfeb6d69d1a88a1c5731d29978"],
        1: ["c61a7425ba2b73697090fcafa7c2f6ee44815760d95efc1e7dd7a9166f84eb6b",
            "97b687ea97753d19f91710bfddfd45a0b5636aeefb4b9d015e316aac53a0cda9"],
        2: ["a64d0c4c6c2826da9e04b22583f3ada819b67a9d976a2440db8622aee607c804",
            "2522bfd332feea30d5d7ff25b3926ea4e20126432d02f4e78f5f8fde9b697f62",
            "48b89e5d0a446028593f7a299e62378c5670e64ee273fdb59c34d636653fb1f8",
            "cd69f0d12b532806646603f245a58906292eb2b727325f55bdae71a89dfae97e"],
        3: ["047da3fc0a9d435e401d689d269966ebdf56716f1f17bcd344787e5eeb5dcef0",
            "1d709e0fd3cd5cf1ecd2c27733e58178262da2779f65f20bc502e1e4806b0b63",
            "d5f15c21b26128c5879573029e07a804503cac4b56ab16ab314d9556dffb957c",
            "730e5448d75f758770cb43951f9fdbacdd231f56507fd6dde71d5872145fdf57",
            "d26d79d56f2ed56a82ad58a390927f33ed3de73d8d623571299db2301c650d3d",
            "b2e1a68a58f946d20215ab5b08d763ff82f027582cab30d97dd1a0238b672bd0",
            "b380fe8a7a3e21ffa33ddde39052b7c2c98c4872b8121e2361d890e13a9f762d",
            "840e9ad2b9d964445464877e4b59d5f931069f3bd7f3b1f62a89147ae3eca206"],
    }

    @pytest.mark.parametrize("levels", sorted(DIGESTS))
    def test_members_bit_identical(self, levels):
        # pins the points and their bit-label order, odd depths included
        got = [hashlib.sha256(m.tobytes()).hexdigest() for m in qam_family(levels).members]
        assert got == self.DIGESTS[levels]


class TestDistances:
    def test_disjointness_everywhere(self):
        fams = [
            psk_family(2, 2, 4),
            psk_family(4, 4, 4),
            psk_family(2, 4, 4),
            qam_family(1),
            qam_family(2),
            qam_family(3),
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
