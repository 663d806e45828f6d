"""Disjoint unit-energy sub-constellations used as block identifiers.

A family is K mutually disjoint M-point constellations. A symbol drawn
from member k marks its subcarrier as belonging to block k, so the family
must stay disjoint as point sets. Two constructions are provided:

* rotated M-PSK rings, member k rotated by 2*k*pi/(M*G) where G is the
  number of rotation slots (G = K by default for maximum separation; pass
  G = N to reproduce the multi-mode construction with one slot per
  subcarrier);
* cosets of the 16-QAM grid obtained by iterated two-way lattice
  splitting, each split doubling the intra-subset minimum distance by
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


def _gray_permute(points: np.ndarray) -> np.ndarray:
    """Reorder ring points so that index b = Gray label of angular position."""
    m = len(points)
    out = np.empty_like(points)
    for pos in range(m):
        out[pos ^ (pos >> 1)] = points[pos]
    return out


def psk_family(M: int, K: int, rotation_slots: int | None = None) -> ConstellationFamily:
    """K rotated M-PSK constellations, member k offset by 2*k*pi/(M*G)."""
    G = K if rotation_slots is None else rotation_slots
    if not _is_pow2(M) or M < 2:
        raise ValueError(f"M must be a power of two >= 2, got {M}")
    if not 1 <= K <= G:
        raise ValueError(f"need 1 <= K <= rotation slots, got K={K}, G={G}")
    members = []
    for k in range(K):
        ang = 2.0 * np.pi * np.arange(M) / M + 2.0 * k * math.pi / (M * G)
        members.append(_gray_permute(np.exp(1j * ang)))
    return ConstellationFamily(members=tuple(members))


def _square_grid() -> tuple[np.ndarray, np.ndarray]:
    """Unit-energy parent QAM points plus their integer grid coordinates."""
    side = math.isqrt(QAM_PARENT)
    levels_1d = np.arange(-(side - 1), side, 2)  # -(side-1), ..., side-1
    scale = math.sqrt(2.0 * (QAM_PARENT - 1) / 3.0)
    pts = (levels_1d[:, None] + 1j * levels_1d[None, :]).ravel() / scale
    u, v = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    coords = np.stack([u.ravel(), v.ravel()], axis=1)
    return pts, coords


def _split_once(pts, coords):
    """One lattice split: checkerboard by coordinate parity, then map each
    half onto its own integer grid (45-degree rotation + shrink). Intra
    minimum distance grows by sqrt(2) per split."""
    s = (coords[:, 0] + coords[:, 1]) % 2
    halves = []
    for parity in (0, 1):
        sel = s == parity
        u = coords[sel, 0] - parity
        v = coords[sel, 1]
        new = np.stack([(u + v) // 2, (v - u) // 2], axis=1)
        halves.append((pts[sel], new))
    return halves


def _gray_label_grid(pts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Bit-label order for a subset. If the subset occupies a full 2^a x 2^b
    grid, apply per-axis Gray labeling; otherwise keep the deterministic
    coordinate order (only reachable for odd split depths, which carry no
    modulation bits in any shipped configuration)."""
    u = coords[:, 0] - coords[:, 0].min()
    v = coords[:, 1] - coords[:, 1].min()
    nu, nv = int(u.max()) + 1, int(v.max()) + 1
    full_grid = _is_pow2(nu) and _is_pow2(nv) and nu * nv == len(pts)
    order = np.lexsort((v, u))
    if not full_grid:
        return pts[order]
    bu = int(math.log2(nu))
    out = np.empty_like(pts)
    for p, uu, vv in zip(pts, u, v):
        gu = int(uu) ^ (int(uu) >> 1)
        gv = int(vv) ^ (int(vv) >> 1)
        out[(gu << int(math.log2(nv))) | gv] = p
    return out


def qam_family(levels: int) -> ConstellationFamily:
    """2^levels cosets of unit-energy 16-QAM.

    Each split doubles the intra-subset minimum distance by sqrt(2); levels
    = 2 yields the four 4-point cosets whose intra distance is 4/sqrt(10).
    Subsets are renormalized to unit average energy (a no-op for every
    balanced subset).
    """
    if levels < 0 or 2**levels > QAM_PARENT:
        raise ValueError(f"invalid partition depth {levels} for {QAM_PARENT}-QAM")
    pts, coords = _square_grid()
    subsets = [(pts, coords)]
    for _ in range(levels):
        nxt = []
        for p, c in subsets:
            nxt.extend(_split_once(p, c))
        subsets = nxt
    members = []
    for p, c in subsets:
        arr = _gray_label_grid(p, c)
        arr = arr / math.sqrt(float(np.mean(np.abs(arr) ** 2)))
        members.append(arr)
    return ConstellationFamily(members=tuple(members))

