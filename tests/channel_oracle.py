"""Reference channel draw: the complex-arithmetic formula that
simulation._draw_channel reproduces bit for bit in its workspace buffers."""

import math


def draw_channel(gen, B, n, n0):
    """Rayleigh fading h and noise of variance n0 for B blocks of n
    subcarriers, drawn h real, h imaginary, noise real, noise imaginary."""
    h = (gen.standard_normal((B, n)) + 1j * gen.standard_normal((B, n))) / math.sqrt(2.0)
    noise = (gen.standard_normal((B, n)) + 1j * gen.standard_normal((B, n))) * math.sqrt(n0 / 2.0)
    return h, noise
