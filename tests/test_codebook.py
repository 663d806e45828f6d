"""Codebook construction, bit mapping, expansion, distances, rates."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from spmofdm import analysis, codebook
from spmofdm.analysis import union_bound_ber
from spmofdm.codebook import (
    MAX_CONTRACTION_SIZE,
    VARIANTS,
    IndexCodebook,
    Scheme,
    asymptotic_max_rate,
    asymptotic_rate,
    build_index_codebook,
    build_scheme,
    _dmin_pairs,
    codebook_dmin,
    export_codebook,
    rate,
    restrict,
)
from spmofdm.combinatorics import (
    bell,
    optimal_k,
    optimal_k_ordered,
    ordered_bell,
    stirling2,
)
from spmofdm.constellations import psk_family
from spmofdm.selection import BudgetExhausted, build_hamming_graph, is_clique

from bound_oracle import union_bound_ber_pairs
from codeword_oracle import expand_codeword


def partition_signature(labels):
    """Partition as a set of position-blocks (label values forgotten)."""
    blocks = {}
    for pos, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(pos)
    return frozenset(frozenset(b) for b in blocks.values())


LOOKUP_BOOK = IndexCodebook(
    variant="spm", n=4, k=2,
    patterns=((0, 1, 1, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
)


class TestBuild:
    def test_spm_4_2_worked_example(self):
        book = build_index_codebook("spm", 4, k=2)
        assert len(book.patterns) == 7
        assert (0, 1, 1, 1) in book.patterns
        assert (0, 0, 1, 1) in book.patterns
        # same seven partitions as the worked example, up to label names
        expected = [
            [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0],
            [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0],
        ]
        assert {partition_signature(p) for p in book.patterns} == {
            partition_signature(p) for p in expected
        }

    def test_ofspm_4(self):
        book = build_index_codebook("ofspm", 4)
        assert len(book.patterns) == 75 == ordered_bell(4)

    def test_mm_3(self):
        book = build_index_codebook("mm", 3)
        assert set(book.patterns) == set(itertools.permutations(range(3)))

    def test_fspm_3_worked_example(self):
        book = build_index_codebook("fspm", 3)
        assert len(book.patterns) == 5 == bell(3)
        expected = [
            [0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 1, 2],
        ]
        assert {partition_signature(p) for p in book.patterns} == {
            partition_signature(p) for p in expected
        }

    def test_counts(self):
        assert len(build_index_codebook("ospm", 4, k=2).patterns) == 14
        assert len(build_index_codebook("dm", 4, d=2).patterns) == 6
        assert len(build_index_codebook("gdm", 4).patterns) == 16
        assert len(build_index_codebook("ofdm-im", 4, n_active=2).patterns) == 6
        assert build_index_codebook("ofdm", 4).patterns == ((0, 0, 0, 0),)

    def test_count_formulas(self):
        for n in range(1, 9):
            assert rate("fspm", n).count == bell(n)
            assert rate("ofspm", n).count == ordered_bell(n)
            assert rate("mm", n).count == math.factorial(n)
            assert rate("gdm", n).count == 2**n

    def test_variant_aliases(self):
        assert build_index_codebook("MM-OFDM-IM", 3).variant == "mm"
        assert build_index_codebook("DM-OFDM-IM", 4, d=2).variant == "dm"

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            build_index_codebook("spm", 4)  # k missing
        with pytest.raises(ValueError):
            build_index_codebook("mm", 4, k=3)  # mm needs k = n
        with pytest.raises(ValueError):
            build_index_codebook("dm", 4, d=4)
        with pytest.raises(ValueError):
            build_index_codebook("ofdm-im", 4)


class TestVariantRules:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_count_and_rate_agree_with_build(self, variant):
        # rate rejects exactly what build_index_codebook rejects, and
        # otherwise counts its patterns
        for n in range(1, 7):
            for k, d, n_active in itertools.product(
                (None, "auto", 0, 2, 3, n, n + 1), (None, 0, 1, n), (None, 0, 2, n + 1)
            ):
                kw = dict(k=k, d=d, n_active=n_active)
                try:
                    book = build_index_codebook(variant, n, **kw)
                except ValueError:
                    with pytest.raises(ValueError):
                        rate(variant, n, **kw)
                    continue
                assert len(set(book.patterns)) == len(book.patterns)
                fig = rate(variant, n, **kw)
                assert (fig.count, fig.k) == (len(book.patterns), book.k), kw

    def test_k_auto(self):
        for n in range(1, 9):
            assert build_index_codebook("spm", n, k="auto").k == optimal_k(n).argmax
            assert build_index_codebook("ospm", n, k="auto").k == optimal_k_ordered(n)
            assert build_index_codebook("mm", n, k="auto").k == n

    def test_mm_k_auto_builds_scheme(self):
        scheme = build_scheme("mm", 4, k="auto")
        assert scheme.name == "mm(4,2)" and scheme.f1 == 4

    def test_exact_selection_timeout_raises(self):
        # an unproven clique is no selection: the build stops instead
        with pytest.raises(BudgetExhausted):
            build_scheme("ofspm", 4, selection="exact", time_budget=0.0)

    def test_qam_depth_4_refused(self):
        # 9 labels need a depth-4 split of 16-QAM: one-point cosets
        with pytest.raises(ValueError, match="partition depth 4"):
            build_scheme("fspm", 9, m=1, constellation="qam")

    def test_solver_checked_before_enumeration(self, monkeypatch):
        def enumerate_ordered_partitions(n, k):
            raise AssertionError("patterns enumerated before the solver was checked")

        monkeypatch.setattr(codebook.comb, "enumerate_ordered_partitions",
                            enumerate_ordered_partitions)
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_scheme("ofspm", 6, selection="bogus")
        with pytest.raises(ValueError, match="time_budget must be finite"):
            build_scheme("ofspm", 6, selection="exact", time_budget=math.nan)

    @pytest.mark.parametrize("variant,kwargs,message", [
        ("ofspm", dict(constellation="bogus"), "unknown constellation 'bogus'"),
        ("ofdm-im", dict(n_active=2, constellation="qam"), "psk data constellation"),
    ], ids=["bogus", "ofdm_im_qam"])
    def test_constellation_checked_before_enumeration(self, monkeypatch, variant, kwargs,
                                                      message):
        def fail(*args, **kwargs):
            raise AssertionError("book enumerated or graph built before the "
                                 "constellation was checked")

        monkeypatch.setattr(codebook.comb, "enumerate_ordered_partitions", fail)
        monkeypatch.setattr(codebook, "_im_patterns", fail)
        monkeypatch.setattr(codebook._sel, "build_hamming_graph", fail)
        with pytest.raises(ValueError, match=message):
            build_scheme(variant, 6, selection="alg2", **kwargs)

    @pytest.mark.parametrize("variant,n,count", [
        ("ofspm", 9, 7_087_261), ("mm", 11, 39_916_800), ("gdm", 21, 1 << 21),
    ])
    def test_enumeration_limit(self, monkeypatch, variant, n, count):
        # refused from the count alone: nothing is enumerated
        real = codebook._variant
        monkeypatch.setattr(codebook, "_variant", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), patterns=lambda: pytest.fail("patterns enumerated")))
        message = f"{count} patterns, above the enumeration limit {codebook.MAX_PATTERNS}"
        for build in (build_index_codebook, build_scheme):
            with pytest.raises(ValueError, match=message):
                build(variant, n)
        assert rate(variant, n).count == count  # the rate table needs no book

    def test_enumeration_limit_admits_ofspm_8(self):
        assert codebook.MAX_PATTERNS == 1 << 20
        assert rate("ofspm", 8).count <= codebook.MAX_PATTERNS < rate("ofspm", 9).count

    def test_scheme_names_carry_defaults(self):
        assert build_scheme("dm", 4).name == "dm(4,2,2)"
        assert build_scheme("spm", 4, k="auto").name == "spm(4,2,2)"
        assert build_scheme("ofdm-im", 4, n_active=3, m=4).name == "ofdm-im(4,3,4)"


class TestContainments:
    def test_two_block_count_beats_combinations(self):
        # S(n,2) >= C(n,d), single exception (n,d) = (2,1)
        for n in range(2, 21):
            for d in range(1, n + 1):
                if (n, d) == (2, 1):
                    assert stirling2(n, 2) < math.comb(n, d)
                else:
                    assert stirling2(n, 2) >= math.comb(n, d)

    def test_dm_subset_of_ospm(self):
        for n in range(2, 7):
            ospm = set(build_index_codebook("ospm", n, k=2).patterns)
            for d in range(1, n):
                dm = set(build_index_codebook("dm", n, d=d).patterns)
                assert dm <= ospm

    def test_mm_equals_ospm_full(self):
        for n in range(2, 7):
            mm = set(build_index_codebook("mm", n).patterns)
            ospm = set(build_index_codebook("ospm", n, k=n).patterns)
            assert mm == ospm

    def test_mm_subset_of_ofspm(self):
        for n in range(2, 7):
            mm = set(build_index_codebook("mm", n).patterns)
            ofspm = set(build_index_codebook("ofspm", n).patterns)
            assert mm < ofspm

    def test_gdm_count_is_binomial_sum(self):
        for n in range(1, 21):
            assert rate("gdm", n).count == sum(math.comb(n, d) for d in range(n + 1))


def index_word_patterns(scheme):
    """Pattern of each index word, read back from the codeword table: the
    book pattern whose symbols fill the word's all-zero modulation row."""
    out = []
    for w in range(1 << scheme.f1):
        row = scheme.codewords[w << scheme.f2]
        hits = [p for p in scheme.book.patterns
                if np.allclose(row, expand_codeword(p, 0, scheme.family))]
        assert len(hits) == 1
        out.append(hits[0])
    return out


class TestBitMapping:
    def test_first_mapped_row(self):
        scheme = Scheme("lookup", LOOKUP_BOOK, psk_family(2, 2, 4))
        assert index_word_patterns(scheme)[0b00] == (0, 1, 1, 1)

    def test_round_trip(self):
        scheme = Scheme("lookup", LOOKUP_BOOK, psk_family(2, 2, 4))
        assert index_word_patterns(scheme) == list(LOOKUP_BOOK.patterns)

    def test_selected_ospm_round_trip(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        book = scheme.book
        assert len(book.patterns) == 8
        assert is_clique(build_hamming_graph(book.patterns), range(8))
        assert index_word_patterns(scheme) == list(book.patterns)

    def test_out_of_range(self):
        # 7 patterns, f1 = 2: only the first four are mapped
        scheme = build_scheme("spm", 4, k=2, m=2)
        assert scheme.codewords.shape[0] == 4 << scheme.f2
        assert index_word_patterns(scheme) == list(scheme.book.patterns[:4])


class TestExpansion:
    def test_first_points(self):
        fam = psk_family(2, 2, 4)
        got = expand_codeword((0, 1, 1, 1), 0, fam)
        expect = np.array([fam.members[0][0]] + [fam.members[1][0]] * 3)
        assert np.allclose(got, expect)

    def test_all_codewords_distinct(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        assert scheme.codewords.shape == (128, 4)
        assert len({tuple(np.round(r, 9)) for r in scheme.codewords}) == 128

    def test_unit_symbol_energy(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg1")
        assert np.allclose(np.abs(scheme.codewords) ** 2, 1.0)

    def test_symbols_come_from_assigned_member(self):
        scheme = build_scheme("spm", 4, k=2, m=2)
        fam, book = scheme.family, scheme.book
        for w in range(scheme.codewords.shape[0]):
            pat = book.patterns[w >> scheme.f2]
            for n, sym in enumerate(scheme.codewords[w]):
                assert np.min(np.abs(fam.members[pat[n]] - sym)) < 1e-12

    def test_label_without_member(self):
        book = IndexCodebook("spm", 3, 3, ((0, 1, 2),))
        with pytest.raises(ValueError, match="label 2"):
            Scheme("bad", book, psk_family(2, 2, 4))  # label 2 missing

    def test_unequal_modulation_widths(self):
        # 4-point data member and 1-point null: (0, 0) carries 4 bits, (0, 1) 2
        family = build_scheme("ofdm-im", 2, m=4, n_active=1).family
        book = IndexCodebook("ofdm-im", 2, 2, ((0, 1), (0, 0)))
        with pytest.raises(ValueError, match="bit width"):
            Scheme("bad", book, family)


class TestDmin:
    def test_two_codeword_bpsk(self):
        book = np.array([[1.0 + 0j], [-1.0 + 0j]])
        dmin, dmin_rl, min_rank = codebook_dmin(book)
        assert dmin == pytest.approx(2.0)
        assert dmin_rl == pytest.approx(2.0)
        assert min_rank == 1

    def test_mm_4psk(self):
        scheme = build_scheme("mm", 4, m=4)
        dmin, dmin_rl, min_rank = codebook_dmin(scheme.codewords)
        assert dmin == pytest.approx(0.5518, abs=5e-4)
        assert dmin_rl == pytest.approx(1.4142, abs=5e-4)
        assert min_rank == 1

    def test_ofspm_qam_cosets(self):
        scheme = build_scheme("ofspm", 4, m=4, constellation="qam", selection="alg2")
        dmin, dmin_rl, min_rank = codebook_dmin(scheme.codewords)
        assert dmin == pytest.approx(0.8944, abs=5e-4)
        assert dmin_rl == pytest.approx(1.2649, abs=5e-4)
        assert min_rank == 1

    @pytest.mark.parametrize("variant", [
        dict(variant="ofdm-im", n=4, n_active=2, m=4),
        dict(variant="mm", n=2, m=2),
        dict(variant="ospm", n=4, k=2, m=2, selection="alg1"),
        dict(variant="fspm", n=3, m=4, constellation="qam"),
        dict(variant="ofspm", n=4, m=2, selection="alg2"),
        dict(variant="mm", n=4, m=4),
        dict(variant="ofspm", n=4, m=4, selection="alg2"),  # J = 8192
        dict(variant="ofspm", n=4, m=4, constellation="qam", selection="alg2"),
    ], ids=lambda v: "-".join(str(x) for x in v.values()))
    def test_matches_pair_oracle(self, variant):
        X = build_scheme(**variant).codewords
        assert codebook_dmin(X) == _dmin_pairs(X)


def small_alphabet_books(seed, count):
    """Random (J, n) books on six points, two of them within 1e-12 of
    others; a third of the books repeat a row."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    points = np.concatenate([base, base[:2] + 3e-13 * (1 - 1j)])
    for _ in range(count):
        J, n = 1 << int(rng.integers(1, 7)), int(rng.integers(1, 5))
        X = points[rng.integers(0, len(points), size=(J, n))]
        if rng.random() < 1 / 3:
            X[rng.integers(J)] = X[rng.integers(J)]
        yield X


def distinct_row_books(seed, count):
    """Random (J, n) books of distinct rows, n from 1 to 6, over q = 2..4
    labels per subcarrier, each subcarrier with its own q points; in about
    a third of the books two points of a subcarrier lie within 1e-12, and
    half the books are single-parity codes (labels summing to 0 mod q),
    whose distinct rows differ on at least two subcarriers."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, q = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        labels = np.array(list(itertools.product(range(q), repeat=n)))
        if n > 1 and rng.random() < 0.5:
            labels = labels[labels.sum(axis=1) % q == 0]
        J = int(rng.integers(2, min(len(labels), 64) + 1))
        rows = labels[rng.choice(len(labels), size=J, replace=False)]
        points = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        if rng.random() < 1 / 3:
            points[rng.integers(n), 1] = points[0, 0] + 3e-13 * (1 - 1j)
        yield points[np.arange(n), rows]


class TestAlphabetKernels:
    """codebook_dmin and union_bound_ber contract per-subcarrier alphabets
    on dense tables and walk the codeword pairs on sparse ones; both paths
    match the pair oracles."""

    @pytest.mark.parametrize("contracts", [True, False], ids=["contract", "walk"])
    def test_random_small_alphabets(self, monkeypatch, contracts):
        monkeypatch.setattr(codebook, "_contracts", lambda *a: contracts)
        for X in small_alphabet_books(seed=7, count=200):
            assert codebook_dmin(X) == _dmin_pairs(X)
            for g in (0.3, 10.0, 1e4):
                got, ref = union_bound_ber(X, g), union_bound_ber_pairs(X, g)
                assert got.pairs == ref.pairs
                assert abs(got.ber_bound - ref.ber_bound) <= 1e-12 * ref.ber_bound

    def test_random_distinct_rows(self, monkeypatch):
        monkeypatch.setattr(codebook, "_contracts", lambda *a: True)
        ranks, widths = [], []
        for X in distinct_row_books(seed=11, count=400):
            got = codebook_dmin(X)
            assert got == _dmin_pairs(X)
            ranks.append(got[2])
            widths.append(X.shape[1])
        ranks, widths = np.array(ranks), np.array(widths)
        # the rank-compared sweep meets every rank and width, not only rank 0
        assert {0, 1, 2, 3} <= set(ranks) and set(widths) == set(range(1, 7))
        assert (ranks >= 2).sum() >= 100 and (widths > 4).sum() >= 100

    @pytest.mark.parametrize("variant, contracts", [
        (dict(variant="ofspm", n=4, m=2, selection="alg2"), True),  # J = 512, prod U = 8^4
        (dict(variant="mm", n=3, m=8), True),  # J = 2048, prod U = 16 * 24^2
        (dict(variant="ofdm-im", n=4, n_active=2, m=8), True),  # J = 256, prod U = 9^4
        (dict(variant="ofdm-im", n=5, n_active=2, m=4), True),  # J = 128, prod U = 5^5
        (dict(variant="ofdm-im", n=6, n_active=2, m=8), False),  # J = 512, prod U = 9^6
        (dict(variant="ofdm-im", n=8, n_active=1, m=8), False),  # J = 64, prod U = 9^8
    ], ids=lambda v: "-".join(str(x) for x in v.values()) if isinstance(v, dict) else str(v))
    def test_dense_contracts_sparse_walks(self, monkeypatch, variant, contracts):
        calls = []
        for module, name in ((codebook, "_least_pair"), (analysis, "_bound_contraction")):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, k=kernel, n=name: calls.append(n) or k(*a))
        X = build_scheme(**variant).codewords
        assert codebook_dmin(X) == _dmin_pairs(X)
        got, ref = union_bound_ber(X, 10.0), union_bound_ber_pairs(X, 10.0)
        assert abs(got.ber_bound - ref.ber_bound) <= 1e-12 * ref.ber_bound
        assert set(calls) == ({"_least_pair", "_bound_contraction"} if contracts else set())

    @pytest.mark.parametrize("variant", [
        dict(variant="ofdm", n=1, m=2),
        dict(variant="mm", n=2, m=2),
        dict(variant="ofspm", n=4, m=2, selection="alg2"),
        dict(variant="ofdm-im", n=4, n_active=2, m=8),  # rate_mc_full/ofdm_im_4_2_8
    ], ids=lambda v: "-".join(str(x) for x in v.values()))
    def test_scheme_or_table(self, variant):
        scheme = build_scheme(**variant)
        assert codebook_dmin(scheme) == codebook_dmin(scheme.codewords)
        for g in (0.3, 10.0, 1e4):
            assert union_bound_ber(scheme, g) == union_bound_ber(scheme.codewords, g)

    def test_contraction_size_cap(self):
        X = np.arange(160).reshape(4, 40) * (1 + 1j)  # 4^40 code tuples
        assert 4**40 > MAX_CONTRACTION_SIZE
        # the cap alone refuses a table the term count would contract
        assert not codebook._contracts((4,) * 40, 1 << 80, 40)
        assert codebook.column_alphabets(X) is None
        assert codebook_dmin(X) == _dmin_pairs(X)

    def test_walk_pair_limit(self, monkeypatch):
        # ofdm-im(8,1,8) walks its 2016 pairs; ofspm(4,2) contracts at any limit
        sparse = build_scheme("ofdm-im", 8, n_active=1, m=8)
        dense = build_scheme("ofspm", 4, m=2, selection="alg2")
        expected = codebook_dmin(dense), union_bound_ber(dense, 10.0)
        monkeypatch.setattr(codebook, "MAX_WALK_PAIRS", 2015)
        for kernel in (codebook_dmin, lambda s: union_bound_ber(s, 10.0)):
            with pytest.raises(ValueError, match="2016 pairs exceed the walk limit 2015"):
                kernel(sparse)
        monkeypatch.setattr(codebook, "MAX_WALK_PAIRS", 0)
        assert (codebook_dmin(dense), union_bound_ber(dense, 10.0)) == expected
        monkeypatch.setattr(codebook, "MAX_WALK_PAIRS", 2016)
        assert codebook_dmin(sparse) == _dmin_pairs(sparse.codewords)

    def test_walk_pair_limit_admits_ofdm_im_7_3_8(self):
        # J = 2^14 codewords over 9^7 code tuples, above the contraction cap
        X = build_scheme("ofdm-im", 7, n_active=3, m=8).codewords
        assert codebook.column_alphabets(X) is None
        assert X.shape[0] * (X.shape[0] - 1) // 2 <= codebook.MAX_WALK_PAIRS


class TestRate:
    @pytest.mark.parametrize(
        "variant,kwargs,expected",
        [
            ("spm", dict(k=2, m=2), 1.5),
            ("ospm", dict(k=2, m=2), 1.75),
            ("fspm", dict(m=2), 1.75),
            ("ofspm", dict(m=2, usable_patterns=32), 2.25),
            ("fspm", dict(m=4), 2.75),
            ("mm", dict(m=4), 3.0),
            ("ofspm", dict(m=4, usable_patterns=32), 3.25),
        ],
    )
    def test_reported_rates(self, variant, kwargs, expected):
        assert rate(variant, 4, **kwargs).rate == pytest.approx(expected)

    def test_ofdm_im_rate(self):
        fig = rate("ofdm-im", 4, m=4, n_active=2)
        assert fig.f1 == 2 and fig.f2 == 4
        assert fig.rate == pytest.approx(1.5)

    def test_raw_rate_uses_full_count(self):
        fig = rate("ofspm", 4, m=2, usable_patterns=32)
        assert fig.raw_rate == pytest.approx((math.log2(75) + 4) / 4)

    def test_raw_rate_approaches_asymptote(self):
        target = asymptotic_rate("spm", 2, 2)
        assert target == pytest.approx(2.0)
        gaps = [abs(rate("spm", n, k=2, m=2).raw_rate - target) for n in (8, 16, 24)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_max_rate_asymptotes(self):
        val = asymptotic_max_rate("ofspm", 16, 2)
        assert val == pytest.approx(math.log2(16) + 1 - math.log2(math.e * math.log(2)))
        for n in (8, 16):
            assert asymptotic_max_rate("fspm", n, 2) == pytest.approx(
                asymptotic_max_rate("spm", n, 2)
            )
            assert asymptotic_max_rate("ofspm", n, 2) == pytest.approx(
                asymptotic_max_rate("ospm", n, 2)
            )
        with pytest.raises(ValueError):  # log(1) = 0: no limit at n = 1
            asymptotic_max_rate("spm", 1, 2)

    def test_index_bits_only_mode(self):
        fig = rate("mm", 4, m=1)
        assert fig.f2 == 0
        assert fig.raw_rate == pytest.approx(math.log2(24) / 4)


class TestRestrict:
    def test_clique_selection(self):
        book = build_index_codebook("ospm", 4, k=2)
        # patterns 0 and 4 are (0,0,0,1) and (0,0,1,1): unit distance
        sub = restrict(book, [0, 4])
        assert not is_clique(build_hamming_graph(sub.patterns), [0, 1])
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg2")
        pats = scheme.book.patterns
        assert is_clique(build_hamming_graph(pats), range(len(pats)))

    def test_padding_lex_smallest(self):
        book = build_index_codebook("fspm", 4)
        sub = restrict(book, [0, 1], pad_to=4)
        assert len(sub.patterns) == 4
        assert sub.patterns[0] == book.patterns[0]
        remaining = sorted(set(book.patterns) - set(book.patterns[:2]))
        assert set(sub.patterns[2:]) == set(remaining[:2])
        # padding reintroduces unit-distance pairs
        assert not is_clique(build_hamming_graph(sub.patterns), range(4))

    def test_pad_too_small(self):
        book = build_index_codebook("fspm", 4)
        with pytest.raises(ValueError):
            restrict(book, range(5), pad_to=3)


class TestExport:
    def test_codebook_header(self):
        book = build_index_codebook("spm", 4, k=2)
        text = export_codebook(book, m=2)
        lines = text.splitlines()
        assert lines[0] == "spm 4 2 2 7"
        assert len(lines) == 8
        assert lines[1].split() == ["0", "0", "0", "1"]
