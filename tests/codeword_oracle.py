"""Reference bit map: one codeword at a time, in plain Python.

Test-side oracle for Scheme's derived codeword table."""

import numpy as np

from spmofdm.constellations import ConstellationFamily


def _widths(pattern, family: ConstellationFamily):
    return [family.bits_per_symbol(lab) for lab in pattern]


def expand_codeword(pattern, mod_bits: int, family: ConstellationFamily) -> np.ndarray:
    """Symbols for one pattern and one f2-bit modulation word, consuming the
    word MSB-first across subcarriers."""
    if max(pattern) + 1 > family.K:
        raise ValueError(
            f"pattern uses label {max(pattern)} but family has only {family.K} members"
        )
    widths = _widths(pattern, family)
    f2 = sum(widths)
    if not 0 <= mod_bits < (1 << f2):
        raise ValueError(f"modulation word {mod_bits} out of range for f2={f2}")
    out = np.empty(len(pattern), dtype=complex)
    rem = f2
    for i, (lab, w) in enumerate(zip(pattern, widths)):
        rem -= w
        idx = (mod_bits >> rem) & ((1 << w) - 1)
        out[i] = family.members[lab][idx]
    return out
