"""Link engine: mapping, detection, BER loop, rate estimator."""

import gc
import glob
import math
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.special import logsumexp

from spmofdm import simulation
from spmofdm.cli import _scheme_from_config, load_config
from spmofdm.codebook import build_scheme
from spmofdm.simulation import (
    BATCH_BLOCKS,
    SimConfig,
    _ber_batch,
    _detect_batch,
    _detect_structured,
    _draw_channel,
    _logsumexp0,
    _stream,
    _Workspace,
    estimate_rate,
    simulate_ber,
    snr_db_to_n0,
)

from channel_oracle import draw_channel
from codeword_oracle import expand_codeword
from rate_oracle import estimate_rate_pairs

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
BER_CONFIGS = sorted(os.path.relpath(p, CONFIG_DIR)
                     for p in glob.glob(os.path.join(CONFIG_DIR, "ber_*", "*.cfg")))
SCHEME_CONFIGS = BER_CONFIGS + sorted(
    os.path.relpath(p, CONFIG_DIR)
    for p in glob.glob(os.path.join(CONFIG_DIR, "rate_mc_*", "*.cfg")))


@pytest.fixture(scope="module")
def ospm422():
    return build_scheme("ospm", 4, k=2, m=2, selection="alg1")


class TestTransmit:
    def test_all_zero_bits(self, ospm422):
        x = ospm422.codewords[0]
        pat = ospm422.book.patterns[0]
        fam = ospm422.family
        assert np.allclose(x, [fam.members[lab][0] for lab in pat])

    def test_found(self):
        assert len(SCHEME_CONFIGS) == 28

    @pytest.mark.parametrize("name", SCHEME_CONFIGS)
    def test_matches_codeword_table(self, name):
        # index word in the top f1 bits, modulation word below; exact equality
        scheme = _scheme_from_config(load_config(os.path.join(CONFIG_DIR, name)))
        mask = (1 << scheme.f2) - 1
        assert scheme.codewords.shape == (1 << scheme.f, scheme.n)
        for w in range(1 << scheme.f):
            pat = scheme.book.patterns[w >> scheme.f2]
            x = expand_codeword(pat, w & mask, scheme.family)
            assert np.array_equal(x, scheme.codewords[w]), w

    def test_distinct_words_distinct_codewords(self):
        for scheme in (build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
                       build_scheme("mm", 4, m=2)):
            rows = {tuple(np.round(r, 9)) for r in scheme.codewords}
            assert len(rows) == 1 << scheme.f

    def test_split_bits(self, ospm422):
        word = (0b101 << ospm422.f2) | 0b0110
        x = expand_codeword(ospm422.book.patterns[0b101], 0b0110, ospm422.family)
        assert np.allclose(ospm422.codewords[word], x)


class TestDetection:
    def test_noiseless_round_trip(self, ospm422):
        rng = np.random.default_rng(5)
        X = ospm422.codewords
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / math.sqrt(2)
        H = np.broadcast_to(h, X.shape)
        det = _detect_batch(X * H, H, X)
        assert (det == np.arange(1 << ospm422.f)).all()

    def test_matches_exhaustive_oracle(self, ospm422):
        # independent metric: explicit norm per candidate
        rng = np.random.default_rng(17)
        X = ospm422.codewords
        w = rng.integers(1 << ospm422.f, size=1000)
        h, noise = draw_channel(rng, 1000, 4, 0.5)
        y = X[w] * h + noise
        metrics = np.linalg.norm(y[:, None, :] - X[None, :, :] * h[:, None, :], axis=2) ** 2
        assert (_detect_batch(y, h, X) == np.argmin(metrics, axis=1)).all()

    def test_block_error_rate_bracket_at_0db(self, ospm422):
        cfg = SimConfig(scheme=ospm422, snr_db_grid=(0.0,), min_bit_errors=100,
                        master_seed=9)
        p = simulate_ber(cfg).points[0]
        assert 0.0 < p.ber < 0.5


class TestStructuredDetection:
    """The per-subcarrier detector against the exhaustive kernel as oracle."""

    @pytest.fixture(scope="class")
    def ofspm42(self):
        return build_scheme("ofspm", 4, m=2, selection="alg2")

    def test_found(self):
        assert len(BER_CONFIGS) == 17

    @pytest.mark.parametrize("name", BER_CONFIGS)
    def test_matches_exhaustive_on_committed_configs(self, name):
        # two Philox batches per SNR, drawn as the BER loop draws them
        scheme = _scheme_from_config(load_config(os.path.join(CONFIG_DIR, name)))
        X = scheme.codewords
        for si, snr_db in enumerate((0.0, 10.0, 20.0)):
            for bi in range(2):
                gen = _stream(1905, simulation._TAG_BER, si, bi)
                h, noise = draw_channel(gen, BATCH_BLOCKS, scheme.n, snr_db_to_n0(snr_db))
                bits = gen.integers(0, 1 << scheme.f, size=BATCH_BLOCKS, dtype=np.uint64)
                y = X[bits] * h + noise
                assert (_detect_structured(y, h, scheme) == _detect_batch(y, h, X)).all()

    @pytest.mark.parametrize("variant", [
        dict(variant="ofspm", n=4, m=2, selection="alg2"),
        dict(variant="ofdm-im", n=4, n_active=3, m=4),
        dict(variant="mm", n=3, m=4),
    ])
    def test_erased_subcarrier_ties_to_lowest(self, variant):
        # h_i = 0 makes every point on subcarrier i tie exactly; among the
        # words that match the sent one elsewhere, the lowest must win
        scheme = build_scheme(**variant)
        X = scheme.codewords
        rng = np.random.default_rng(3)
        sent = rng.integers(1 << scheme.f, size=512)
        h0, _ = draw_channel(rng, sent.size, scheme.n, 1.0)
        for erased in [[i] for i in range(scheme.n)] + [list(range(scheme.n))]:
            h = h0.copy()
            h[:, erased] = 0.0
            y = X[sent] * h  # noiseless
            keep = [i for i in range(scheme.n) if i not in erased]
            same = np.isclose(X[None, :, keep], X[sent][:, None, keep]).all(axis=2)
            expected = same.argmax(axis=1)  # lowest word matching off the erasure
            assert (_detect_structured(y, h, scheme) == expected).all()
            assert (_detect_batch(y, h, X) == expected).all()
        assert (expected == 0).all()  # all erased: word 0

    def test_tiled_equals_untiled(self, ofspm42):
        P = 1 << ofspm42.f1
        B = 70_000  # P * B exceeds the 2^21-element tile
        assert P * B > 1 << 21 > P * (B // 2)
        rng = np.random.default_rng(8)
        h, noise = draw_channel(rng, B, ofspm42.n, 0.3)
        y = ofspm42.codewords[rng.integers(1 << ofspm42.f, size=B)] * h + noise
        tiled = _detect_structured(y, h, ofspm42)
        halves = [_detect_structured(y[s], h[s], ofspm42)
                  for s in (slice(0, B // 2), slice(B // 2, B))]
        assert (tiled == np.concatenate(halves)).all()
        assert (tiled == _detect_batch(y, h, ofspm42.codewords)).all()

    def test_ber_loop_worker_and_kernel_independent(self, ofspm42, monkeypatch):
        assert 1 << ofspm42.f > simulation._EXHAUSTIVE_MAX_J
        cfg = SimConfig(scheme=ofspm42, snr_db_grid=(5.0, 15.0), min_bit_errors=300,
                        master_seed=41)
        one, two = simulate_ber(cfg, workers=1), simulate_ber(cfg, workers=2)
        monkeypatch.setattr(simulation, "_EXHAUSTIVE_MAX_J", 1 << ofspm42.f)
        assert one == two == simulate_ber(cfg, workers=1)


class TestWorkspace:
    """Batches run in one reused workspace per thread, with the old draws and
    decisions."""

    @pytest.mark.parametrize("B,n,snr_db", [(BATCH_BLOCKS, 1, 30.0), (BATCH_BLOCKS, 4, 0.0),
                                            (256, 3, 17.5), (5, 2, -10.0)])
    def test_draws_equal_complex_formula(self, B, n, snr_db):
        n0 = snr_db_to_n0(snr_db)
        for bi in range(3):
            gen, ref_gen = (_stream(1905, simulation._TAG_BER, 2, bi) for _ in range(2))
            h, noise = _draw_channel(gen, B, n, n0, _Workspace())
            ref_h, ref_noise = draw_channel(ref_gen, B, n, n0)
            assert h.tobytes() == ref_h.tobytes() and noise.tobytes() == ref_noise.tobytes()
            # the stream is left where the old draw left it
            assert gen.integers(1 << 62) == ref_gen.integers(1 << 62)

    def test_batches_reuse_the_buffers(self):
        scheme = build_scheme("ofspm", 4, m=4, selection="alg2")
        ws = _Workspace()
        _ber_batch(scheme, 0, 0, 0.1, 1905, ws)
        bufs = dict(ws.bufs)
        assert bufs["metric"].nbytes >= 1 << 21  # the largest temporary lives here
        _ber_batch(scheme, 1, 7, 0.01, 1905, ws)
        assert ws.bufs.keys() == bufs.keys()
        assert all(ws.bufs[k] is v for k, v in bufs.items())

    def test_buffers_are_per_thread(self):
        ws = _Workspace()
        mine = ws("x", (3, 4))
        other = []
        t = threading.Thread(target=lambda: other.append(ws("x", (3, 4))))
        t.start()
        t.join()
        assert not np.shares_memory(mine, other[0])
        assert np.shares_memory(mine, ws("x", (2, 4)))  # a shorter shape reuses the buffer

    def test_alternated_schemes_share_one_workspace(self):
        # different n, m and detectors through one workspace, batch by batch
        schemes = [build_scheme("ofspm", 4, m=2, selection="alg2"), build_scheme("mm", 2, m=2),
                   build_scheme("ofdm", 1, m=8), build_scheme("ofspm", 4, m=4, selection="alg2")]
        ws = _Workspace()
        for bi in range(2):
            for scheme in schemes:
                args = (scheme, 0, bi, snr_db_to_n0(12.0), 77)
                assert _ber_batch(*args, ws) == _ber_batch(*args, _Workspace())

    def test_more_workers_than_cores_under_fast_switching(self):
        # a buffer shared between threads would mix batches and move the counts
        cfg = SimConfig(scheme=build_scheme("ofspm", 4, m=4, selection="alg2"),
                        snr_db_grid=(15.0,), min_bit_errors=10**9, max_blocks=16 * BATCH_BLOCKS,
                        master_seed=13)
        one = simulate_ber(cfg, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than cores, up to one per batch of a wave
            assert simulate_ber(cfg, workers=min(os.cpu_count() or 1, 7) + 1) == one
        finally:
            sys.setswitchinterval(interval)

    def test_alternated_runs_equal_separate_runs(self):
        cfgs = [SimConfig(scheme=build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
                          snr_db_grid=(10.0,), min_bit_errors=300, master_seed=5),
                SimConfig(scheme=build_scheme("mm", 2, m=2), snr_db_grid=(10.0, 20.0),
                          min_bit_errors=300, master_seed=5)]
        separate = []
        for cfg in cfgs:  # each in a fresh thread of its own
            t = threading.Thread(target=lambda c=cfg: separate.append(simulate_ber(c)))
            t.start()
            t.join()
        for _ in range(2):
            assert [simulate_ber(cfg, workers=w) for cfg, w in zip(cfgs, (1, 2))] == separate

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scheme_released_after_the_call(self, workers):
        scheme = build_scheme("ofspm", 4, m=2, selection="alg2")
        ref = weakref.ref(scheme)
        simulate_ber(SimConfig(scheme=scheme, snr_db_grid=(10.0,), min_bit_errors=1,
                               master_seed=3), workers=workers)
        del scheme
        gc.collect()
        assert ref() is None


class TestReferenceCounts:
    """The Philox/decision contract: seed 1905, 400 errors and two workers
    give the (blocks, bit, index, mod) counts that the detectors before the
    workspace gave."""

    @pytest.mark.parametrize("variant,grid,max_blocks,counts", [
        (dict(variant="ofdm", n=1, m=2), (30.0,), 40_000_000,
         [(1605632, 401, 0, 401)]),
        (dict(variant="mm", n=2, m=2), (10.0, 20.0), 40_000_000,
         [(32768, 2131, 372, 1759), (98304, 481, 17, 464)]),
        (dict(variant="ospm", n=4, k=2, m=2, selection="alg1"), (10.0, 20.0), 10_000_000,
         [(32768, 13478, 10093, 3385), (32768, 574, 256, 318)]),
        (dict(variant="ofspm", n=4, m=2, selection="alg2"), (10.0, 20.0), 40_000_000,
         [(32768, 21460, 15098, 6362), (32768, 693, 304, 389)]),
        (dict(variant="ofspm", n=4, m=4, selection="alg2"), (20.0,), 4_000_000,
         [(32768, 6110, 3944, 2166)]),
    ], ids=["ofdm_bpsk", "mm_2_2", "ospm_4_2_2", "ofspm_4_2", "ofspm_4_4"])
    def test_seed_1905(self, variant, grid, max_blocks, counts):
        cfg = SimConfig(scheme=build_scheme(**variant), snr_db_grid=grid, min_bit_errors=400,
                        max_blocks=max_blocks, master_seed=1905)
        got = [(p.blocks, p.bit_errors, p.index_bit_errors, p.mod_bit_errors)
               for p in simulate_ber(cfg, workers=2).points]
        assert got == counts


class TestBerLoop:
    def test_matches_rayleigh_closed_form(self):
        scheme = build_scheme("ofdm", 1, m=2)
        cfg = SimConfig(scheme=scheme, snr_db_grid=(0.0, 10.0), min_bit_errors=2000,
                        master_seed=23)
        rep = simulate_ber(cfg)
        for p in rep.points:
            g = 10 ** (p.snr_db / 10)
            pb = 0.5 * (1 - math.sqrt(g / (1 + g)))
            se = math.sqrt(pb * (1 - pb) / p.bits_sent)
            assert abs(p.ber - pb) < 3 * se

    def test_noiseless_limit(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(200.0,), min_bit_errors=1,
                        max_blocks=16384, master_seed=1)
        p = simulate_ber(cfg).points[0]
        assert p.bit_errors == 0
        assert p.blocks >= 10_000
        assert not p.converged  # never reached an error, flagged as such

    def test_error_split_adds_up(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(0.0, 15.0), min_bit_errors=500,
                        master_seed=2)
        for p in simulate_ber(cfg).points:
            assert p.index_bit_errors + p.mod_bit_errors == p.bit_errors
            assert p.index_bit_errors > 0 and p.mod_bit_errors > 0

    def test_reproducible_and_worker_independent(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(5.0, 10.0), min_bit_errors=300,
                        master_seed=77)
        a = simulate_ber(cfg, workers=1)
        b = simulate_ber(cfg, workers=3)
        c = simulate_ber(cfg, workers=1)
        assert a == b == c == simulate_ber(cfg, workers=2)

    def test_seed_changes_results(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        base = dict(scheme=scheme, snr_db_grid=(5.0,), min_bit_errors=300)
        a = simulate_ber(SimConfig(master_seed=1, **base))
        b = simulate_ber(SimConfig(master_seed=2, **base))
        assert a.points[0].bit_errors != b.points[0].bit_errors

    def test_block_budget_below_one_batch_rejected(self):
        scheme = build_scheme("ofdm", 1, m=2)
        with pytest.raises(ValueError):
            SimConfig(scheme=scheme, snr_db_grid=(10.0,), max_blocks=BATCH_BLOCKS - 1)
        cfg = SimConfig(scheme=scheme, snr_db_grid=(10.0,), min_bit_errors=10**9,
                        max_blocks=BATCH_BLOCKS, master_seed=3)
        assert simulate_ber(cfg).points[0].blocks == BATCH_BLOCKS

    def test_block_counts_are_whole_batches(self):
        scheme = build_scheme("ofdm", 1, m=2)
        cfg = SimConfig(scheme=scheme, snr_db_grid=(10.0,), min_bit_errors=100,
                        master_seed=3)
        p = simulate_ber(cfg).points[0]
        assert p.blocks % BATCH_BLOCKS == 0


class TestEnergyAccounting:
    def test_all_active_unit_energy(self):
        # expectation over uniform words is exact on the codeword table;
        # a drawn-bits pass confirms the sampled average too
        for scheme in (build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
                       build_scheme("ofspm", 4, m=4, constellation="qam",
                                    selection="alg2")):
            table_mean = float(np.mean(np.abs(scheme.codewords) ** 2))
            assert abs(table_mean - 1.0) < 1e-12
            rng = np.random.default_rng(11)
            words = rng.integers(0, 1 << scheme.f, size=100_000 // scheme.n)
            sampled = float(np.mean(np.abs(scheme.codewords[words]) ** 2))
            assert abs(sampled - 1.0) < 1e-3

    def test_ofdm_im_block_energy_matches(self):
        scheme = build_scheme("ofdm-im", 4, m=4, n_active=2)
        block_energy = (np.abs(scheme.codewords) ** 2).sum(axis=1)
        assert np.allclose(block_energy.mean(), 4.0, atol=1e-12)


class TestRateEstimator:
    @pytest.mark.parametrize("shape", [(4, 16, 4, 256), (1, 9, 3, 256), (3, 12, 2, 256),
                                       (16, 64, 256), (1, 5, 256), (2, 7)])
    def test_logsumexp0_matches_scipy(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        a = -np.abs(rng.standard_normal(shape)) * rng.choice([1e-3, 1.0, 50.0, 1e4], size=shape)
        tied = np.round(a)  # many maxima tie
        tied[-1] = tied.max(axis=0)  # at least two where the axis allows
        for x in (a, tied, a + 700.0, np.zeros(shape)):
            got = _logsumexp0(x.copy())
            assert got.shape == shape[1:]
            np.testing.assert_allclose(got, logsumexp(x, axis=0), rtol=1e-14, atol=0)

    def test_saturates_at_f_over_n(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(40.0,), master_seed=5)
        p = estimate_rate(cfg, draws=1024).points[0]
        assert abs(p.rate - 1.75) <= max(2 * p.stderr, 1e-6)

    def test_vanishes_at_low_snr(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(-30.0,), master_seed=5)
        p = estimate_rate(cfg, draws=1024).points[0]
        assert p.rate < 0.02

    def test_monotone_in_snr_with_paired_seeds(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(0.0, 6.0, 12.0, 18.0),
                        master_seed=5)
        pts = estimate_rate(cfg, draws=768).points
        for a, b in zip(pts, pts[1:]):
            assert b.rate > a.rate - 3 * (a.stderr + b.stderr)

    def test_reproducible(self):
        scheme = build_scheme("spm", 4, k=2, m=2, selection="alg1")
        cfg = SimConfig(scheme=scheme, snr_db_grid=(10.0,), master_seed=5)
        assert estimate_rate(cfg, draws=512) == estimate_rate(cfg, draws=512)

    @pytest.mark.parametrize("variant", [
        # ofdm-im's null member has one point: summing its point-table
        # repeats instead would be wrong by nats per term
        dict(variant="ofdm-im", n=4, n_active=2, m=4),
        dict(variant="ofdm-im", n=4, n_active=2, m=8),
        dict(variant="ofdm-im", n=4, n_active=3, m=4),
        dict(variant="ospm", n=4, k=2, m=2, selection="alg1"),
        dict(variant="mm", n=2, m=2),
        dict(variant="ofdm", n=1, m=2),
        dict(variant="fspm", n=3, m=4, constellation="qam"),  # three 4-point cosets
        dict(variant="ofspm", n=4, m=2),  # J = 1024, P = 64: 256 word tiles of 4
    ], ids=lambda v: "-".join(str(x) for x in v.values()))
    def test_matches_pair_oracle(self, variant):
        scheme = build_scheme(**variant)
        grid = (0.0, 15.0, 40.0) if scheme.f < 10 else (15.0,)
        cfg = SimConfig(scheme=scheme, snr_db_grid=grid, master_seed=5)
        got, ref = estimate_rate(cfg, draws=256), estimate_rate_pairs(cfg, draws=256)
        assert len(got.points) == len(ref.points) == len(grid)
        for p, q in zip(got.points, ref.points):
            assert (p.snr_db, p.draws) == (q.snr_db, q.draws)
            assert abs(p.rate - q.rate) <= 1e-12 and abs(p.stderr - q.stderr) <= 1e-12
