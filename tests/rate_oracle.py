"""Reference rate estimator: the exhaustive sum over all J^2 codeword pairs.

Test-side oracle for estimate_rate's per-subcarrier factorisation. Same
Philox streams, draw order and statistics, so the two agree to rounding."""

import math

import numpy as np
from scipy.special import logsumexp

from spmofdm.simulation import (
    _DRAW_BATCH,
    _TAG_RATE,
    RatePoint,
    RateReport,
    SimConfig,
    _stream,
    snr_db_to_n0,
)

from channel_oracle import draw_channel


def estimate_rate_pairs(config: SimConfig, draws: int = 4096) -> RateReport:
    """For each draw, every candidate i contributes log2 sum_j exp(d(i,j))
    with d(i,j) = (||n||^2 - ||h o (x_i - x_j) + n||^2) / N0, evaluated in
    max-shifted form over the rows of the codeword table; the rate is
    (f - mean over draws and i) / n."""
    scheme = config.scheme
    X = scheme.codewords
    J, n = X.shape
    if J > 8192:
        raise ValueError(f"rate estimator is exhaustive over pairs; 2^f={J} too large")
    f = scheme.f
    n_batches = max(1, math.ceil(draws / _DRAW_BATCH))
    i_chunk = max(1, (1 << 22) // (J * _DRAW_BATCH))  # keep tiles ~4M elements
    points = []
    for si, snr_db in enumerate(config.snr_db_grid):
        n0 = snr_db_to_n0(snr_db)
        t_vals = []
        for bi in range(n_batches):
            gen = _stream(config.master_seed, _TAG_RATE, si, bi)
            B = _DRAW_BATCH
            h, noise = draw_channel(gen, B, n, n0)
            a = (np.abs(h) ** 2).T  # (n, B)
            u = (np.conj(h) * noise).T  # (n, B)
            acc = np.zeros(B)
            for lo in range(0, J, i_chunk):
                hi = min(J, lo + i_chunk)
                D = X[lo:hi, None, :] - X[None, :, :]  # (ci, J, n)
                ci = hi - lo
                Dm = D.reshape(ci * J, n)
                quad = (np.abs(Dm) ** 2) @ a  # (ci*J, B)
                cross = 2.0 * (np.conj(Dm) @ u).real
                delta = -(quad + cross) / n0
                acc += logsumexp(delta.reshape(ci, J, B), axis=1).sum(axis=0)
            t_vals.append(acc / (J * math.log(2.0)))
        t = np.concatenate(t_vals)
        rate_val = (f - float(t.mean())) / n
        stderr = float(t.std(ddof=1)) / math.sqrt(t.size) / n
        points.append(RatePoint(snr_db=snr_db, rate=rate_val, stderr=stderr, draws=t.size))
    return RateReport(points=tuple(points))
