"""Disjoint unit-energy sub-constellations used as block identifiers.

A family is K mutually disjoint M-point constellations. A symbol drawn
from member k marks its subcarrier as belonging to block k, so the family
must stay disjoint as point sets. Two constructions are provided:

* rotated M-PSK rings, member k rotated by 2*k*pi/(M*G) where G is the
  number of rotation slots (G = K for maximum separation; G = N
  reproduces the multi-mode construction with one slot per subcarrier);
* cosets of the 16-QAM grid obtained by iterated two-way lattice
  splitting, each split multiplying the intra-subset minimum distance by
  sqrt(2).

Member arrays are stored in bit-label order: index b is the symbol for
modulation bit word b, with Gray labeling wherever the subset is a full
power-of-two grid (always true for the ring, the parent QAM and the
even-level cosets).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstellationFamily",
    "psk_family",
    "qam_family",
]

QAM_PARENT = 16  # qam_family splits this square QAM grid


@dataclass(frozen=True)
class ConstellationFamily:
    """K disjoint constellations; members[k][b] is the symbol for bit word b."""

    members: tuple[np.ndarray, ...]

    def __post_init__(self):
        for m in self.members:
            m.setflags(write=False)

    @property
    def M(self) -> int:
        """Points per data constellation: the largest member's size."""
        return max(map(len, self.members))

    @property
    def K(self) -> int:
        return len(self.members)

    def bits_per_symbol(self, label: int) -> int:
        return int(math.log2(len(self.members[label])))


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def psk_family(M: int, K: int, rotation_slots: int) -> ConstellationFamily:
    """K rotated M-PSK constellations, member k offset by 2*k*pi/(M*G) with
    G = rotation_slots."""
    G = rotation_slots
    if not _is_pow2(M) or M < 2:
        raise ValueError(f"M must be a power of two >= 2, got {M}")
    if not 1 <= K <= G:
        raise ValueError(f"need 1 <= K <= rotation slots, got K={K}, G={G}")
    pos = np.arange(M)
    gray = np.argsort(pos ^ (pos >> 1))  # index b = Gray label of angular position
    members = []
    for k in range(K):
        ang = 2.0 * np.pi * pos / M + 2.0 * k * math.pi / (M * G)
        members.append(np.exp(1j * ang)[gray])
    return ConstellationFamily(members=tuple(members))


def qam_family(levels: int) -> ConstellationFamily:
    """2^levels cosets of unit-energy 16-QAM, 0 <= levels <= 3.

    Each split sends a point to coset 2c + (u + v) % 2 by the checkerboard
    parity of its integer grid coordinates (u, v), and maps the half onto
    its own integer grid (a 45-degree rotation and shrink), so each split
    multiplies the intra-coset minimum distance by sqrt(2); levels = 2 yields
    the four 4-point cosets whose intra distance is 4/sqrt(10). Every coset
    of two or more points is balanced, so it keeps unit average energy; the
    1-point cosets of levels = 4 would not, so that depth is refused.

    A coset that fills a 2^a x 2^b grid is Gray-labelled per axis; otherwise
    (odd depths) its points keep their coordinate order.
    """
    if levels < 0 or 2**levels >= QAM_PARENT:
        raise ValueError(f"invalid partition depth {levels} for {QAM_PARENT}-QAM: "
                         "each coset needs at least two points")
    side = math.isqrt(QAM_PARENT)
    u, v = (a.ravel() for a in np.meshgrid(np.arange(side), np.arange(side), indexing="ij"))
    scale = math.sqrt(2.0 * (QAM_PARENT - 1) / 3.0)
    pts = ((2 * u - side + 1) + 1j * (2 * v - side + 1)) / scale
    label = np.zeros_like(u)
    for _ in range(levels):
        s = (u + v) % 2
        label = 2 * label + s
        u, v = (u - s + v) // 2, (v - u + s) // 2
    members = []
    for c in range(1 << levels):
        sel = label == c
        cu, cv = u[sel] - u[sel].min(), v[sel] - v[sel].min()
        nu, nv = int(cu.max()) + 1, int(cv.max()) + 1
        if _is_pow2(nu) and _is_pow2(nv) and nu * nv == sel.sum():
            cu, cv = cu ^ (cu >> 1), cv ^ (cv >> 1)
        members.append(pts[sel][np.argsort(cu * nv + cv)])
    return ConstellationFamily(members=tuple(members))
