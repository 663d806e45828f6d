"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them all).

Criterion 3 is the eigenvalue bound on the clique number, asserted twice.
`clique_upper_bound` counts the adjacency eigenvalues lambda <= -1
(inclusive, with tolerance EIG_TOL) and adds one. The inclusive count is
the form that is a theorem: a clique K_w has w - 1 eigenvalues equal to -1,
so by Cauchy interlacing the adjacency matrix has at least w - 1
eigenvalues <= -1. The strict count (lambda < -1) is no bound at all: on
ospm6 and ospm8 it gives 22 and 92, below cliques of 32 and 128.

test_criterion_03a pins this implementation's values. test_criterion_03b
checks the published integers against what the formula promises. Each
graph has eigenvalues exactly at -1 (6, 19 and 70 on ospm4/6/8, one on
each ofspm graph), and each published value counts only some of them, as
an eigensolver does that rounds them to either side of -1. So 03b asserts
that every published value P lies in the bracket
[1 + #(lambda < -1), 1 + #(lambda <= -1)], that no eigenvalue sits near
enough to -1 for the bracket to depend on the tolerance, that P is still
a valid bound (on ospmN it is at least the 2^(N-1)-vertex clique of the
patterns with an odd number of 1 labels) and that P starts the search at
the same power of two as the computed bound.
"""

import itertools
import math
import time

import numpy as np
import pytest

from spmofdm.analysis import union_bound_ber
from spmofdm.codebook import (
    build_index_codebook,
    build_scheme,
    codebook_dmin,
    rate,
)
from spmofdm.combinatorics import (
    bell,
    enumerate_ordered_partitions,
    enumerate_partitions,
    optimal_k,
    optimal_k_ordered,
    ordered_bell,
    stirling2,
)
from spmofdm.selection import (
    EIG_TOL,
    brute_force_k_clique,
    build_hamming_graph,
    clique_upper_bound,
    exact_max_clique,
    is_clique,
    vertex_exclusion,
)
from spmofdm.simulation import SimConfig, estimate_rate, simulate_ber

from spectrum_oracle import adjacency_eigenvalues


def report(criterion, ok, detail):
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for n in (4, 6, 8):
        out[f"ospm{n}"] = build_hamming_graph(
            build_index_codebook("ospm", n, k=2).patterns
        )
    for n in (3, 4, 5, 6):
        out[f"ofspm{n}"] = build_hamming_graph(
            build_index_codebook("ofspm", n).patterns
        )
    return out


@pytest.fixture(scope="module")
def spectra(graphs):
    """Adjacency eigenvalues of each graph, solved once for 3a and 3b: the
    oracle for clique_upper_bound, which factorises instead."""
    return {name: adjacency_eigenvalues(g) for name, g in graphs.items()}


@pytest.fixture(scope="module")
def upper_bounds(graphs):
    """clique_upper_bound of each graph, computed once for 3a and 3b."""
    return {name: clique_upper_bound(g) for name, g in graphs.items()}


def test_criterion_01_combinatorial_exactness():
    t0 = time.perf_counter()
    assert stirling2(4, 2) == 7
    assert bell(3) == 5
    assert bell(4) == 15
    assert [ordered_bell(n) for n in (3, 4, 5, 6)] == [13, 75, 541, 4683]
    for n in range(2, 17):
        assert stirling2(n, 2) == 2 ** (n - 1) - 1
    dt = time.perf_counter() - t0
    report(1, dt < 1.0, f"counts exact in {dt:.3f}s")


def test_criterion_02_enumeration_cross_check():
    t0 = time.perf_counter()
    for n in range(1, 11):
        for k in range(1, n + 1):
            got = list(enumerate_partitions(n, k))
            assert len(got) == stirling2(n, k), (n, k)
            assert len(set(got)) == len(got)
    for n in range(1, 9):
        for k in range(1, n + 1):
            ordered = list(enumerate_ordered_partitions(n, k))
            assert len(ordered) == math.factorial(k) * stirling2(n, k)
            closure = {
                tuple(perm[x] for x in p)
                for p in enumerate_partitions(n, k)
                for perm in itertools.permutations(range(k))
            }
            assert set(ordered) == closure and len(ordered) == len(set(ordered))
    dt = time.perf_counter() - t0
    report(2, dt < 10.0, f"enumerations match counting formulas in {dt:.1f}s")


# published bound-column integers for the seven graphs
_PUBLISHED_BOUNDS = {
    "ospm4": 9, "ospm6": 32, "ospm8": 129,
    "ofspm3": 7, "ofspm4": 33, "ofspm5": 225, "ofspm6": 1876,
}
# this implementation's deterministic values (inclusive eigenvalue count)
_FORMULA_BOUNDS = {
    "ospm4": 10, "ospm6": 41, "ospm8": 162,
    "ofspm3": 7, "ofspm4": 34, "ofspm5": 225, "ofspm6": 1877,
}


def test_criterion_03a_spectral_bound_formula(spectra, upper_bounds):
    brackets = {}
    for name, lam in spectra.items():
        strict = int((lam < -1 - 1e-9).sum()) + 1
        incl = int((lam <= -1 + 1e-9).sum()) + 1
        brackets[name] = (strict, incl)
        assert upper_bounds[name] == incl == _FORMULA_BOUNDS[name], name
        pub = _PUBLISHED_BOUNDS[name]
        assert strict <= pub <= incl, (name, strict, pub, incl)
        # the search uses floor(log2 bound); identical either way
        assert 1 << int(math.log2(incl)) == 1 << int(math.log2(pub))
    report(
        "3a", True,
        "deterministic bounds " + str(_FORMULA_BOUNDS)
        + "; every published value inside its exact-eigenvalue bracket "
        + str({k: v for k, v in brackets.items()}),
    )


def test_criterion_03b_spectral_bound_published_values(
    graphs, spectra, upper_bounds
):
    rows, problems = {}, []
    for name, g in graphs.items():
        lam, got = spectra[name], upper_bounds[name]
        pub = _PUBLISHED_BOUNDS[name]
        dist = np.abs(lam + 1.0)
        m = int((dist <= EIG_TOL).sum())
        below = int((lam < -1.0 - EIG_TOL).sum())
        rows[name] = (pub, got, m)
        # the program's bound and the published one differ only in how
        # many of the m eigenvalues at exactly -1 they count
        if not 0 <= got - pub <= m:
            problems.append(f"{name}: computed {got} - published {pub} "
                            f"not in [0, {m}]")
        if pub < 1 + below:
            problems.append(f"{name}: published {pub} < 1 + {below} "
                            "eigenvalues below -1")
        # the bracket does not hinge on the tolerance
        near = dist[(dist > EIG_TOL) & (dist < 1e-3)]
        if near.size:
            problems.append(f"{name}: eigenvalues within {near.max():.1e} "
                            "of -1 but outside EIG_TOL")
        # still a valid bound: the patterns with an odd number of 1 labels
        # differ pairwise in an even, nonzero number of places
        if name.startswith("ospm"):
            n = int(name.removeprefix("ospm"))
            patterns = build_index_codebook("ospm", n, k=2).patterns  # vertex order
            odd = [i for i, p in enumerate(patterns) if sum(p) % 2]
            if len(odd) != 2 ** (n - 1) or not is_clique(g, odd):
                problems.append(f"{name}: odd-label-count set is not a "
                                f"{2 ** (n - 1)}-clique")
            elif pub < len(odd):
                problems.append(f"{name}: published {pub} below the "
                                f"{len(odd)}-clique")
        # the search consumes 2^floor(log2 bound)
        if 1 << int(math.log2(pub)) != 1 << int(math.log2(got)):
            problems.append(f"{name}: published {pub} and computed {got} "
                            "start the search at different powers of two")
    report(
        "3b", not problems,
        "(published, computed, eigenvalues at -1) " + str(rows)
        + (": " + "; ".join(problems) if problems else
           ": every published value counts part of the eigenvalues at -1 "
           "and bounds the known cliques"),
    )


def test_criterion_04_clique_sizes(graphs):
    res1 = brute_force_k_clique(graphs["ospm4"])
    assert res1.size == 8 and is_clique(graphs["ospm4"], res1.indices)
    res2 = brute_force_k_clique(graphs["ofspm3"])
    assert res2.size == 4 and is_clique(graphs["ofspm3"], res2.indices)

    expected_ve = {"ofspm3": 7, "ofspm4": 32, "ospm4": 8, "ospm6": 32, "ospm8": 128}
    for name, want in expected_ve.items():
        res = vertex_exclusion(graphs[name])
        assert is_clique(graphs[name], res.indices), name
        assert res.size == want, (name, res.size, want)

    assert exact_max_clique(graphs["ospm4"]).size == 8
    assert exact_max_clique(graphs["ofspm3"]).size == 7

    deltas = {}
    for name, floor_req, published in (("ofspm5", 128, 181), ("ofspm6", 1024, 1321)):
        res = vertex_exclusion(graphs[name])
        assert is_clique(graphs[name], res.indices), name
        assert res.size >= floor_req, (name, res.size)
        deltas[name] = res.size - published
    report(4, True,
           f"alg1 8/4, alg2 {expected_ve}, exact 8/7; "
           f"tie-break deltas vs published sizes: {deltas}")


def test_criterion_05_rates():
    listed = [
        rate("spm", 4, k=2, m=2).rate,
        rate("ospm", 4, k=2, m=2).rate,
        rate("fspm", 4, m=2).rate,
        rate("ofspm", 4, m=2, usable_patterns=32).rate,
        rate("fspm", 4, m=4).rate,
        rate("mm", 4, m=4).rate,
        rate("ofspm", 4, m=4, usable_patterns=32).rate,
    ]
    assert listed == [1.5, 1.75, 1.75, 2.25, 2.75, 3.0, 3.25]

    for n in range(2, 13):
        ofspm = math.log2(ordered_bell(n)) / n
        kb = optimal_k_ordered(n)
        ospm = math.log2(math.factorial(kb) * stirling2(n, kb)) / n
        mm = math.log2(math.factorial(n)) / n
        assert ofspm >= ospm - 1e-12 >= mm - 1e-12, n
        if n >= 3:
            ks = optimal_k(n).argmax
            spm = math.log2(stirling2(n, ks)) / n
            fspm = math.log2(bell(n)) / n
            dm = math.log2(math.comb(n, n // 2)) / n
            assert min(spm, ospm, fspm, ofspm) >= dm - 1e-12, n
    report(5, True, "scheme rates 1.5/1.75/1.75/2.25/2.75/3.0/3.25; "
                    "index-bit orderings hold for N <= 12")


def test_criterion_06_distances():
    mm = build_scheme("mm", 4, m=4)  # rotation slots default to N = 4
    d1, d1_rl, _ = codebook_dmin(mm.codewords)
    assert d1 == pytest.approx(0.5518, abs=5e-4)
    assert d1_rl == pytest.approx(1.4142, abs=5e-4)
    qam = build_scheme("ofspm", 4, m=4, constellation="qam", selection="alg2")
    d2, d2_rl, _ = codebook_dmin(qam.codewords)
    assert d2 == pytest.approx(0.8944, abs=5e-4)
    assert d2_rl == pytest.approx(1.2649, abs=5e-4)
    report(6, True,
           f"PSK {d1:.4f}/{d1_rl:.4f}, QAM cosets {d2:.4f}/{d2_rl:.4f}")


def test_criterion_07_ber_oracle():
    t0 = time.perf_counter()
    scheme = build_scheme("ofdm", 1, m=2)
    cfg = SimConfig(scheme=scheme, snr_db_grid=(0.0, 10.0, 20.0),
                    min_bit_errors=2000, max_blocks=4_000_000, master_seed=2024)
    rep = simulate_ber(cfg)
    devs = []
    for p in rep.points:
        assert p.converged and p.bit_errors >= 200
        g = 10 ** (p.snr_db / 10)
        pb = 0.5 * (1 - math.sqrt(g / (1 + g)))
        se = math.sqrt(pb * (1 - pb) / p.bits_sent)
        devs.append((p.ber - pb) / se)
        assert abs(devs[-1]) < 3.0, (p.snr_db, p.ber, pb)
    dt = time.perf_counter() - t0
    report(7, dt < 60.0,
           f"Rayleigh BPSK deviations {[f'{d:+.2f}' for d in devs]} sigma in {dt:.1f}s")


@pytest.fixture(scope="module")
def ofspm42_ber():
    # 3000 errors: the 40 dB bound margin is ~6%, so the MC point needs a
    # standard error under 2% for the comparison to be statistically forced
    scheme = build_scheme("ofspm", 4, m=2, selection="alg2")
    cfg = SimConfig(scheme=scheme, snr_db_grid=(20.0, 25.0, 30.0, 35.0, 40.0),
                    min_bit_errors=3000, max_blocks=32_000_000, master_seed=31)
    return scheme, simulate_ber(cfg)


def test_criterion_08_ber_bound(ofspm42_ber):
    scheme, rep = ofspm42_ber
    ratios = {}
    for p in rep.points:
        bound = union_bound_ber(scheme.codewords, 10 ** (p.snr_db / 10)).ber_bound
        ratios[p.snr_db] = bound / p.ber
        assert p.ber <= bound, (p.snr_db, p.ber, bound)
    anchor = min(rep.points, key=lambda p: abs(math.log10(p.ber) + 4))
    anchor_ratio = ratios[anchor.snr_db]
    assert anchor_ratio <= 3.0
    report(8, True,
           f"MC <= bound on 20..40 dB; at {anchor.snr_db:g} dB "
           f"(BER {anchor.ber:.2e}) bound/MC = {anchor_ratio:.2f}")


def test_criterion_09_ber_orderings(ofspm42_ber):
    t0 = time.perf_counter()
    seed = 31  # shared: equal-length schemes see identical channels

    def ber_at(scheme, snrs, min_errors=1200, max_blocks=20_000_000):
        cfg = SimConfig(scheme=scheme, snr_db_grid=snrs, min_bit_errors=min_errors,
                        max_blocks=max_blocks, master_seed=seed)
        return {p.snr_db: p.ber for p in simulate_ber(cfg).points}

    # (a) the higher-rate ordered-partition scheme still wins at high SNR
    ospm = ber_at(build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
                  (35.0, 40.0), min_errors=2500, max_blocks=40_000_000)
    mm22 = ber_at(build_scheme("mm", 2, m=2), (35.0, 40.0),
                  min_errors=2500, max_blocks=80_000_000)
    for snr in (35.0, 40.0):
        assert ospm[snr] <= mm22[snr], (snr, ospm[snr], mm22[snr])

    # (b) full ordered-partition book beats its baselines at 40 dB; the MM
    # margin is ~7%, hence the 3000-error targets and the shared seed
    # (equal block length pairs the channel draws across schemes)
    scheme42, rep = ofspm42_ber
    ofspm40 = rep.points[-1].ber
    im = ber_at(build_scheme("ofdm-im", 4, m=4, n_active=3), (40.0,),
                min_errors=2000)[40.0]
    mm42_scheme = build_scheme("mm", 4, m=2)
    mm42 = ber_at(mm42_scheme, (40.0,), min_errors=3000,
                  max_blocks=60_000_000)[40.0]
    qpsk = ber_at(build_scheme("ofdm", 1, m=4), (40.0,), min_errors=2000,
                  max_blocks=60_000_000)[40.0]
    assert ofspm40 < im and ofspm40 < mm42 and ofspm40 < qpsk, (
        ofspm40, im, mm42, qpsk)
    bound_of = union_bound_ber(scheme42.codewords, 1e4).ber_bound
    bound_mm = union_bound_ber(mm42_scheme.codewords, 1e4).ber_bound

    # (c) QAM cosets win at low SNR, rotated PSK wins at high SNR
    psk = build_scheme("ofspm", 4, m=4, selection="alg2")
    qam = build_scheme("ofspm", 4, m=4, constellation="qam", selection="alg2")
    psk_ber = ber_at(psk, (10.0, 35.0), min_errors=500, max_blocks=1_500_000)
    qam_ber = ber_at(qam, (10.0, 35.0), min_errors=500, max_blocks=1_500_000)
    assert qam_ber[10.0] < psk_ber[10.0], "QAM must win at low SNR"
    assert psk_ber[35.0] < qam_ber[35.0], "PSK must win at high SNR"

    dt = time.perf_counter() - t0
    report(9, dt < 1800.0,
           f"orderings hold: OSPM {ospm[40.0]:.2e} <= MM(2,2) {mm22[40.0]:.2e}; "
           f"OFSPM(4,2) {ofspm40:.2e} < IM {im:.2e} / MM(4,2) {mm42:.2e} / "
           f"QPSK {qpsk:.2e} (40 dB bounds corroborate: {bound_of:.2e} vs "
           f"{bound_mm:.2e}); QAM-PSK crossover "
           f"({qam_ber[10.0]:.3f} < {psk_ber[10.0]:.3f} at 10 dB, "
           f"{psk_ber[35.0]:.2e} < {qam_ber[35.0]:.2e} at 35 dB) in {dt:.0f}s")


def test_criterion_10_achievable_rate():
    t0 = time.perf_counter()
    seed = 47
    saturation = {}
    schemes = {
        "spm(4,2,2)": build_scheme("spm", 4, k=2, m=2, selection="alg1"),
        "ospm(4,2,2)": build_scheme("ospm", 4, k=2, m=2, selection="alg1"),
        "mm(2,2)": build_scheme("mm", 2, m=2),
        "dm(4,2)": build_scheme("dm", 4, m=2),
        "ofdm-im(4,2,4)": build_scheme("ofdm-im", 4, m=4, n_active=2),
        "ofdm(bpsk)": build_scheme("ofdm", 1, m=2),
    }
    for name, scheme in schemes.items():
        cfg = SimConfig(scheme=scheme, snr_db_grid=(40.0,), master_seed=seed)
        p = estimate_rate(cfg, draws=2048).points[0]
        target = scheme.f / scheme.n
        saturation[name] = (p.rate, target)
        assert abs(p.rate - target) <= max(2 * p.stderr, 1e-6), (name, p)

    # SNR (dB) at which each scheme first reaches 1.5 - 0.005 bits/subcarrier;
    # the baselines saturate at exactly 1.5, so a plot-resolution threshold
    # slightly below is needed for a finite crossing
    threshold = 1.5 - 0.005

    def crossing(scheme, grid):
        cfg = SimConfig(scheme=scheme, snr_db_grid=grid, master_seed=seed)
        pts = estimate_rate(cfg, draws=12288).points
        for a, b in zip(pts, pts[1:]):
            if a.rate < threshold <= b.rate:
                frac = (threshold - a.rate) / (b.rate - a.rate)
                return a.snr_db + frac * (b.snr_db - a.snr_db)
        raise AssertionError(f"no crossing of {threshold} on {grid}")

    ospm_cross = crossing(schemes["ospm(4,2,2)"], tuple(float(x) for x in range(7, 13)))
    im_cross = crossing(schemes["ofdm-im(4,2,4)"], tuple(float(x) for x in range(16, 27)))
    gap = im_cross - ospm_cross
    assert abs(gap - 12.0) <= 2.0, (ospm_cross, im_cross, gap)
    dt = time.perf_counter() - t0
    report(10, True,
           f"40 dB saturation at f/N for all schemes; 1.5 bits/subcarrier "
           f"reached at {ospm_cross:.1f} dB vs {im_cross:.1f} dB "
           f"(gap {gap:.1f} dB) in {dt:.0f}s")


def test_criterion_runtime_ordering(graphs):
    # wall-clock values are machine-specific; only the ordering is asserted:
    # vertex exclusion and the exact solver both beat brute force on the
    # instances all of them can handle, and exclusion beats exact where the
    # gap is structural (larger graphs; the tiny ones finish in microseconds)
    for name in ("ospm4", "ofspm3"):
        g = graphs[name]
        brute = brute_force_k_clique(g)
        assert vertex_exclusion(g).elapsed_s < brute.elapsed_s, name
        assert exact_max_clique(g).elapsed_s < brute.elapsed_s, name
    for name in ("ospm8", "ofspm4"):
        g = graphs[name]
        assert vertex_exclusion(g).elapsed_s < exact_max_clique(g).elapsed_s, name
    report("runtime", True, "exclusion < exact < brute-force ordering holds")


def test_criterion_11_deterministic_reruns(tmp_path):
    from spmofdm.cli import main

    ber_cfg = tmp_path / "ber.cfg"
    ber_cfg.write_text(
        "variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n"
        "snr_start=10\nsnr_stop=20\nsnr_step=10\nmin_errors=200\nseed=13\n"
    )
    outs = []
    for name, workers in (("a", "1"), ("b", "4"), ("c", "2")):
        out = tmp_path / f"{name}.csv"
        assert main(["ber", "--config", str(ber_cfg), "--out", str(out),
                     "--workers", workers]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    mc_cfg = tmp_path / "mc.cfg"
    mc_cfg.write_text(
        "variant=spm\nn=4\nk=2\nm=2\nselection=alg1\n"
        "snr_start=10\nsnr_stop=10\nsnr_step=1\ndraws=512\nseed=13\n"
    )
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["rate-mc", "--config", str(mc_cfg), "--out", str(m1)]) == 0
    assert main(["rate-mc", "--config", str(mc_cfg), "--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
    report(11, True, "byte-identical CSVs across re-runs and worker counts")
