"""Frequency-domain Monte-Carlo link engine.

Everything happens on the post-FFT block model y = sqrt(Es) X h + n with
i.i.d. unit-variance Rayleigh fading h and complex Gaussian noise n of
variance N0 = 10^(-snr_db/10) (Es = 1: all shipped constellations have
unit average energy, so snr_db is symbol SNR per subcarrier).

Randomness comes from counter-based Philox streams keyed by
(master_seed, purpose tag, SNR index, batch index). Blocks are simulated
in fixed-size batches of BATCH_BLOCKS, each batch owning one stream, so
results are bit-identical for any worker count and any execution order.
Block counts are therefore always multiples of BATCH_BLOCKS.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebook import Scheme

__all__ = [
    "BATCH_BLOCKS",
    "SimConfig",
    "BerPoint",
    "BerReport",
    "RatePoint",
    "RateReport",
    "simulate_ber",
    "estimate_rate",
]

BATCH_BLOCKS = 4096  # blocks per RNG stream; fixed, part of the reproducibility contract
_WAVE_BATCHES = 8  # stop condition is evaluated on whole waves
_TAG_BER = 0
_TAG_RATE = 1
_M64 = (1 << 64) - 1


def _stream(master_seed: int, tag: int, snr_index: int, batch_index: int) -> np.random.Generator:
    key = np.array([master_seed & _M64, (master_seed >> 64) & _M64], dtype=np.uint64)
    counter = np.array([0, batch_index, snr_index, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def snr_db_to_n0(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True)
class SimConfig:
    scheme: Scheme
    snr_db_grid: tuple[float, ...]
    min_bit_errors: int = 200
    max_blocks: int = 10_000_000
    master_seed: int = 1905

    def __post_init__(self):
        if len(self.snr_db_grid) == 0:
            raise ValueError("snr grid must be non-empty")
        if self.min_bit_errors < 1:
            raise ValueError("min_bit_errors must be >= 1")
        if self.max_blocks < BATCH_BLOCKS:
            raise ValueError(f"max_blocks must be >= {BATCH_BLOCKS} (one batch)")
        if not 0 <= self.master_seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2^128), got {self.master_seed}")


def _detect_batch(y, h, codewords):
    """ML decision for a batch: argmin_j ||y - c_j o h||^2, ties to the
    lowest index. The |y|^2 term is constant per block and dropped."""
    J, B = len(codewords), len(y)
    cc = np.abs(codewords) ** 2  # (J, n)
    out = np.empty(B, dtype=np.int64)
    rows = max(1, (1 << 21) // J)
    for lo in range(0, B, rows):
        hi = min(B, lo + rows)
        w = np.conj(y[lo:hi]) * h[lo:hi]  # (b, n)
        cross = (w @ codewords.T).real  # (b, J)
        metric = (np.abs(h[lo:hi]) ** 2) @ cc.T  # (b, J) power term
        metric -= 2.0 * cross  # in place: one (b, J) temporary fewer
        out[lo:hi] = np.argmin(metric, axis=1)
    return out


# Exhaustive vs structured per 4096-block batch (one BLAS thread, 2-vCPU
# host): mm(2,2) J=8 0.38 vs 0.55 ms, gdm(2,2) J=16 1.28 vs 0.67 ms,
# ospm(4,2,2) J=128 5.5 vs 1.1 ms, ofspm(4,4) J=8192 505 vs 3.0 ms.
_EXHAUSTIVE_MAX_J = 8


def _detect_structured(y, h, scheme):
    """ML decision per subcarrier: each subcarrier keeps, per label, its best
    point s and metric |h|^2 |s|^2 - 2 Re(conj(y) h s); the pattern with the
    least sum of its labels' minima wins. Ties go to the lowest point, then
    the lowest pattern: _detect_batch's lowest-word order. A repeated point
    of a short member ties with a lower index and never wins."""
    pats, shifts, f2 = scheme.patterns, scheme.offsets, scheme.f2
    pts = scheme.points.T  # (M, K)
    coef = np.stack([np.abs(pts) ** 2, -2.0 * pts.real, 2.0 * pts.imag], axis=-1)
    P, n = pats.shape
    m, K, _ = coef.shape
    out = np.empty(len(y), dtype=np.int64)
    rows = max(1, (1 << 21) // max(P, n * K * m))
    for lo in range(0, len(y), rows):
        hb = h[lo : lo + rows]
        w = np.conj(y[lo : lo + rows]) * hb
        feat = np.stack([hb.real**2 + hb.imag**2, w.real, w.imag]).reshape(3, -1)
        metric = (coef.reshape(-1, 3) @ feat).reshape(m, K, -1, n)  # (m, K, b, n)
        best, sym = metric[0].copy(), np.zeros(metric.shape[1:], dtype=np.intp)
        for j in range(1, m):  # strict <: ties keep the lower point
            sym[metric[j] < best] = j
            np.minimum(best, metric[j], out=best)
        score = sum(best[pats[:, i], :, i] for i in range(n))  # (P, b)
        p = score.argmin(axis=0)
        s = sym[pats[p], np.arange(len(hb))[:, None], np.arange(n)]
        out[lo : lo + rows] = (p << f2) | (s << shifts[p]).sum(axis=1)
    return out


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    blocks: int
    bits_sent: int
    bit_errors: int
    index_bit_errors: int
    mod_bit_errors: int
    converged: bool

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent

    @property
    def index_ber(self) -> float:
        return self.index_bit_errors / self.bits_sent

    @property
    def mod_ber(self) -> float:
        return self.mod_bit_errors / self.bits_sent


@dataclass(frozen=True)
class BerReport:
    points: tuple[BerPoint, ...]

    @property
    def converged(self) -> bool:
        return all(p.converged for p in self.points)


def _draw_channel(gen, B, n, n0):
    """Rayleigh fading h and noise of variance n0 for B blocks of n
    subcarriers, drawn h real, h imaginary, noise real, noise imaginary."""
    h = (gen.standard_normal((B, n)) + 1j * gen.standard_normal((B, n))) / math.sqrt(2.0)
    noise = (gen.standard_normal((B, n)) + 1j * gen.standard_normal((B, n))) * math.sqrt(n0 / 2.0)
    return h, noise


def _ber_batch(scheme, snr_index, batch_index, n0, seed):
    """Simulate one batch; returns integer error counters.

    Channel and noise are drawn before the data bits, so two schemes with
    the same block length and seed see identical fading realizations: BER
    comparisons between them are paired (common random numbers).
    """
    gen = _stream(seed, _TAG_BER, snr_index, batch_index)
    n, f, f2, B = scheme.n, scheme.f, scheme.f2, BATCH_BLOCKS
    h, noise = _draw_channel(gen, B, n, n0)
    bits = gen.integers(0, 1 << f, size=B, dtype=np.uint64)
    y = scheme.codewords[bits] * h + noise
    det = (_detect_batch(y, h, scheme.codewords) if 1 << f <= _EXHAUSTIVE_MAX_J
           else _detect_structured(y, h, scheme))
    x = bits ^ det.astype(np.uint64)
    total = int(np.bitwise_count(x).sum())
    idx_err = int(np.bitwise_count(x >> np.uint64(f2)).sum())
    return total, idx_err, total - idx_err


def simulate_ber(config: SimConfig, workers: int = 1) -> BerReport:
    """Monte-Carlo BER over the SNR grid.

    Each point runs whole waves of batches until min_bit_errors is reached
    or the block budget is exhausted (then flagged non-converged). Identical
    configs give bit-identical reports for any worker count.
    """
    scheme = config.scheme
    max_batches = config.max_blocks // BATCH_BLOCKS
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    points = []
    try:
        for si, snr_db in enumerate(config.snr_db_grid):
            n0 = snr_db_to_n0(snr_db)
            tot = idx = mod = 0
            batches_done = 0
            while batches_done < max_batches:
                todo = range(batches_done, min(batches_done + _WAVE_BATCHES, max_batches))
                job = lambda b: _ber_batch(scheme, si, b, n0, config.master_seed)
                results = pool.map(job, todo) if pool else map(job, todo)
                for t, i, m in results:  # fixed batch order
                    tot += t
                    idx += i
                    mod += m
                batches_done = todo.stop
                if tot >= config.min_bit_errors:
                    break
            blocks = batches_done * BATCH_BLOCKS
            points.append(
                BerPoint(
                    snr_db=snr_db, blocks=blocks, bits_sent=blocks * scheme.f,
                    bit_errors=tot, index_bit_errors=idx, mod_bit_errors=mod,
                    converged=tot >= config.min_bit_errors,
                )
            )
    finally:
        if pool:
            pool.shutdown()
    return BerReport(points=tuple(points))


@dataclass(frozen=True)
class RatePoint:
    snr_db: float
    rate: float
    stderr: float
    draws: int


@dataclass(frozen=True)
class RateReport:
    points: tuple[RatePoint, ...]


_DRAW_BATCH = 256
_WORD_BUFFER = 1 << 17  # float64 elements of estimate_rate's word buffer: 1 MiB, cache-sized


def _logsumexp0(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the first axis of a finite array, overwriting a;
    the m maxima of a column are summed apart, as scipy.special.logsumexp does."""
    top = a.max(axis=0)
    a -= top
    at_top = a == 0  # the maxima; m = 1 in every column unless two tie somewhere
    m = at_top.sum(axis=0, dtype=a.dtype) if np.count_nonzero(at_top) > top.size else 1.0
    np.exp(a, out=a)
    a -= at_top  # their exp(0) = 1 is counted in m, not in the sum
    return np.log1p(a.sum(axis=0) / m) + np.log(m) + top


def estimate_rate(config: SimConfig, draws: int = 4096) -> RateReport:
    """Achievable rate by Monte-Carlo average of the mutual-information
    log-sum-exp term over channel and noise draws.

    For each draw, every word i contributes log2 sum_j exp(d(i,j)) with
    d(i,j) = (||n||^2 - ||h o (x_i - x_j) + n||^2) / N0; the rate is
    (f - mean over draws and i) / n. A word is a pattern plus one point per
    subcarrier, so the sum over the words j of pattern q factorises per
    subcarrier: e[t, k, x, b] is the log-sum-exp of d_t over the points of
    member k, and word i's term is the log-sum-exp over the mapped patterns
    q of sum_t e[t, q_t, x_it, b], at J*P*n per draw b. Each reduced axis
    comes first (point terms (|member|, T, n, B), word tiles (P, tile, B)),
    so a log-sum-exp is elementwise work across rows. The tile and one
    subcarrier's gather share one buffer of 2^17 float64 (2 * P * B when
    P > 256), reused across tiles, batches and SNR points. Draws are
    rounded up to whole batches of B = 256.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    scheme = config.scheme
    members, pats, sym = scheme.family.members, scheme.patterns, scheme.symbols
    x = np.concatenate(members)  # the T points that sym indexes
    (J, n), T, P = sym.shape, len(x), len(pats)
    B, n_batches = _DRAW_BATCH, math.ceil(draws / _DRAW_BATCH)
    tile = max(1, min(J, _WORD_BUFFER // (2 * P * B)))  # divides J: both are 2^x
    g, gather = np.empty((2, P, tile, B))  # the tile and one subcarrier's gather
    # -N0 d_t(x, s) = |h|^2 |x - s|^2 + 2 Re(conj(x - s) conj(h) n) = coef @ feat, one
    # coef per member: its distinct points, not their repeats in Scheme.points
    coefs = [np.stack([np.abs(d) ** 2, 2.0 * d.real, 2.0 * d.imag], axis=-1).reshape(-1, 3)
             for d in (x[None, :] - s[:, None] for s in members)]
    points = []
    for si, snr_db in enumerate(config.snr_db_grid):
        n0 = snr_db_to_n0(snr_db)
        t_vals = []
        for bi in range(n_batches):
            gen = _stream(config.master_seed, _TAG_RATE, si, bi)
            h, noise = _draw_channel(gen, B, n, n0)
            u = (np.conj(h) * noise).T
            feat = np.stack([np.abs(h.T) ** 2, u.real, u.imag]).reshape(3, -1) / -n0
            e = np.stack([_logsumexp0((c @ feat).reshape(-1, T, n, B)) for c in coefs],
                         axis=2).transpose(1, 2, 0, 3)  # (T, n, K, B) -> (n, K, T, B)
            e_pat = [e[t][pats[:, t]] for t in range(n)]  # n x (P, T, B)
            acc = np.zeros(B)
            for idx in sym.reshape(-1, tile, n):
                np.take(e_pat[0], idx[:, 0], axis=1, out=g, mode="clip")  # clip: out unbuffered
                for t in range(1, n):
                    g += np.take(e_pat[t], idx[:, t], axis=1, out=gather, mode="clip")
                acc += _logsumexp0(g).sum(axis=0)  # (P, tile, B) -> (B,)
            t_vals.append(acc / (J * math.log(2.0)))
        t = np.concatenate(t_vals)
        rate_val = (scheme.f - float(t.mean())) / n
        stderr = float(t.std(ddof=1)) / math.sqrt(t.size) / n
        points.append(RatePoint(snr_db=snr_db, rate=rate_val, stderr=stderr, draws=t.size))
    return RateReport(points=tuple(points))
