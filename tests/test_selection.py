"""Hamming graph construction and the clique machinery.

The published bound-column values for these graphs straddle eigenvalues
that are exactly -1, so the deterministic inclusive convention used here
(count lambda <= -1 + eps, plus one) reproduces some but not all of them;
the regression values below are this implementation's own, and every
published value is checked to lie in the [strict, inclusive] bracket.
"""

import glob
import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg.lapack

from spmofdm.cli import _call, load_config
from spmofdm.codebook import build_index_codebook, build_scheme
from spmofdm.selection import (
    CliqueResult,
    HammingGraph,
    brute_force_k_clique,
    build_hamming_graph,
    clique_upper_bound,
    exact_max_clique,
    graph_from_edge_list,
    is_clique,
    solver,
    vertex_exclusion,
)
from spmofdm.combinatorics import floor_log2

from alg2_oracle import vertex_exclusion_degrees
from combination_oracle import unrank_combination
from graph_oracle import hamming_adjacency
from spectrum_oracle import adjacency_eigenvalues, eigenvalue_bound

TWO_GROUP_PATTERNS = [
    (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
    (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
]


def hamming_distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def export_edge_list(graph):
    """One 'l lhat' line per edge, 0-based, l < lhat: the format
    graph_from_edge_list reads."""
    ii, jj = np.nonzero(np.triu(graph.adjacency, k=1))
    return "\n".join(f"{i} {j}" for i, j in zip(ii, jj)) + "\n"


def ospm_graph(n):
    return build_hamming_graph(build_index_codebook("ospm", n, k=2).patterns)


def ofspm_graph(n):
    return build_hamming_graph(build_index_codebook("ofspm", n).patterns)


class TestGraph:
    def test_unit_distance_pair_not_adjacent(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        assert hamming_distance(TWO_GROUP_PATTERNS[0], TWO_GROUP_PATTERNS[4]) == 1
        assert not g.adjacency[0, 4]

    def test_distance_two_pair_adjacent(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        assert hamming_distance(TWO_GROUP_PATTERNS[0], TWO_GROUP_PATTERNS[1]) == 2
        assert g.adjacency[0, 1]

    def test_symmetric_zero_diagonal(self):
        g = ospm_graph(4)
        assert (g.adjacency == g.adjacency.T).all()
        assert not g.adjacency.diagonal().any()
        ptr = g.non_neighbours[0]
        assert (np.diff(ptr) == (g.order - 1) - g.adjacency.sum(axis=1)).all()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            build_hamming_graph([(0, 1), (0, 1)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_hamming_graph([(0, 1), (0, 1, 1)])

    def test_order_limit(self):
        # the edge lists' limit: 2^14 patterns would need L x L arrays of 268 MB
        with pytest.raises(ValueError, match="8192 patterns"):
            build_hamming_graph(itertools.product((0, 1), repeat=14))
        assert build_hamming_graph(itertools.product((0, 1), repeat=13)).order == 8192

    @pytest.mark.parametrize("variant,n,kwargs", [
        ("ospm", 6, dict(k=2)), ("ofspm", 4, {}), ("mm", 4, {}),
    ], ids=["ospm6", "ofspm4", "mm4"])
    def test_matches_pairwise_distances(self, variant, n, kwargs):
        pats = build_index_codebook(variant, n, **kwargs).patterns
        adj = build_hamming_graph(pats).adjacency
        want = [[hamming_distance(p, q) >= 2 for q in pats] for p in pats]
        assert adj.tolist() == want

    def test_long_patterns(self):
        # distances 256 and 257 do not wrap round to 0 and 1 in the counter
        n = 257
        g = build_hamming_graph([(0,) * n, (1,) * n, (1,) * (n - 1) + (0,)])
        assert g.adjacency.tolist() == [[False, True, True], [True, False, False],
                                        [True, False, False]]

    def test_edge_list_export(self):
        g = build_hamming_graph([(0, 0, 0), (1, 1, 0), (0, 0, 1)])
        assert export_edge_list(g) == "0 1\n1 2\n"

    def test_edge_list_round_trip(self):
        g = ospm_graph(4)
        h = graph_from_edge_list(export_edge_list(g))
        assert (h.adjacency == g.adjacency).all()
        assert vertex_exclusion(h).indices == vertex_exclusion(g).indices

    def test_edge_list_errors(self):
        with pytest.raises(ValueError):
            graph_from_edge_list("0 0\n")
        with pytest.raises(ValueError):
            graph_from_edge_list("1 2 3\n")
        # rejected before the (L, L) adjacency, 8.88 PiB here, is allocated
        with pytest.raises(ValueError, match="limit"):
            graph_from_edge_list("0 1\n0 100000000\n")


SELECT_CONFIGS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "select", "*.cfg")))


def random_patterns(n, q, L, seed):
    """Up to L distinct random patterns over labels 0..q-1, rows shuffled."""
    rng = np.random.default_rng(seed)
    pats = np.unique(rng.integers(0, q, size=(L, n)), axis=0)
    return pats[rng.permutation(len(pats))]


ORACLE_BOOKS = {
    **{os.path.basename(path)[:-4]: (lambda path=path: _call(
        build_index_codebook, load_config(path)).patterns) for path in SELECT_CONFIGS},
    "spm6_3": lambda: build_index_codebook("spm", 6, k=3).patterns,
    "mm5": lambda: build_index_codebook("mm", 5).patterns,
    "ofdm_im6_2": lambda: build_index_codebook("ofdm-im", 6, n_active=2).patterns,
    "binary13": lambda: list(itertools.product((0, 1), repeat=13)),  # 8192 vertices
    # few labels: large runs off each position; many: runs of one or two
    **{f"random_n{n}_q{q}": (lambda n=n, q=q, L=L: random_patterns(n, q, L, seed=n * q))
       for n, q, L in ((2, 300, 3000), (3, 300, 2000), (3, 12, 1200), (4, 5, 600),
                       (6, 3, 500), (9, 2, 400), (5, 300, 300))},
    "n1": lambda: [(7,), (0,), (299,), (3,), (1,)],  # one run: no edges at all
    "n1_pair": lambda: [(1,), (0,)],
}


class TestDistanceOneBuild:
    """build_hamming_graph groups the patterns that agree off one position;
    the column-by-column distance sum is its reference."""

    def test_all_select_configs_covered(self):
        assert len(SELECT_CONFIGS) == 7

    @pytest.mark.parametrize("name", sorted(ORACLE_BOOKS))
    def test_matches_column_sum(self, name):
        pats = ORACLE_BOOKS[name]()
        g = build_hamming_graph(pats)
        assert (g.adjacency == hamming_adjacency(pats)).all()
        # the lists from the build equal the ones read off the adjacency
        ptr, idx = g.non_neighbours
        want_ptr, want_idx = HammingGraph(g.adjacency).non_neighbours
        assert idx.dtype == want_idx.dtype == np.int32
        assert (ptr == want_ptr).all() and (idx == want_idx).all()


def gnp_graph(L, p, rng):
    upper = np.triu(rng.random((L, L)) < p, k=1)
    return HammingGraph(upper | upper.T)


class TestListsAlg2:
    """vertex_exclusion over the non-neighbour lists against the degree
    oracle, on pattern graphs, edge-list graphs and random graphs."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BOOKS))
    def test_pattern_graphs(self, name):
        g = build_hamming_graph(ORACLE_BOOKS[name]())
        assert vertex_exclusion(g).indices == vertex_exclusion_degrees(g)

    @pytest.mark.parametrize("name", ["ospm_n4", "ofspm_n4", "spm6_3", "random_n3_q12"])
    def test_edge_list_graphs(self, name):
        g = build_hamming_graph(ORACLE_BOOKS[name]())
        h = graph_from_edge_list(export_edge_list(g))
        assert h.non_edges is None
        assert vertex_exclusion(h).indices == vertex_exclusion_degrees(h)

    @pytest.mark.parametrize("p", [0.02, 0.3, 0.7, 0.98])
    def test_random_graphs(self, p):
        rng = np.random.default_rng(int(p * 100))
        for L in (2, 3, 5, 17, 64, 300, 1000):
            g = gnp_graph(L, p, rng)
            assert vertex_exclusion(g).indices == vertex_exclusion_degrees(g), (L, p)


class TestUpperBound:
    def test_complete_graph(self):
        # pairwise-far patterns form K_m; spectrum has -1 with multiplicity m-1
        for m, pats in ((6, list(itertools.permutations(range(3)))),
                        (4, [(0, 0), (1, 1), (2, 2), (3, 3)])):
            g = build_hamming_graph(pats)
            assert clique_upper_bound(g) >= m

    def test_regression_values(self):
        # Deterministic values under the inclusive eigenvalue convention.
        assert clique_upper_bound(ospm_graph(4)) == 10
        assert clique_upper_bound(ofspm_graph(3)) == 7
        assert clique_upper_bound(ofspm_graph(4)) == 34

    def test_published_values_in_float_bracket(self):
        # The published numbers (9 and 33 here) sit between the strict and
        # inclusive counts because of eigenvalues exactly at -1.
        for graph, published in ((ospm_graph(4), 9), (ofspm_graph(3), 7),
                                 (ofspm_graph(4), 33)):
            lam = adjacency_eigenvalues(graph)
            lo = int((lam < -1 - 1e-9).sum()) + 1
            hi = int((lam <= -1 + 1e-9).sum()) + 1
            assert lo <= published <= hi

    def test_one_factorisation_per_graph(self, monkeypatch):
        calls = []
        real = scipy.linalg.lapack.dsytrf
        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        g = ospm_graph(4)
        for algo in ("alg1", "alg2", "exact"):
            assert solver(algo)(g).bound == 10
        assert clique_upper_bound(g) == 10
        assert len(calls) == 1

    def test_algorithm_k_is_convention_independent(self):
        # floor(log2 .) of the bound is what the search uses; it agrees for
        # the published and the inclusive value on every benchmark instance.
        for ours, published in ((10, 9), (41, 32), (162, 129), (7, 7),
                                (34, 33), (225, 225), (1877, 1876)):
            assert floor_log2(ours) == floor_log2(published)


class TestBoundOnDemand:
    """alg1 is the only solver that factorises; the other results read the
    graph's clique bound when asked for it."""

    @pytest.fixture
    def no_dsytrf(self, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("dsytrf called")

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", refuse)
        return monkeypatch

    def test_alg2_and_exact_defer_the_factorisation(self, no_dsytrf):
        g = ospm_graph(4)
        results = [vertex_exclusion(g), exact_max_clique(g)]
        with pytest.raises(AssertionError, match="dsytrf called"):
            results[0].bound
        with pytest.raises(AssertionError, match="dsytrf called"):
            brute_force_k_clique(g)
        no_dsytrf.undo()
        assert [res.bound for res in results] == [10, 10]

    def test_alg2_selection_builds_without_the_factorisation(self, no_dsytrf):
        scheme = build_scheme("ofspm", 6, m=2, selection="alg2")
        assert len(scheme.book.patterns) == 1292 and scheme.f1 == 10


def block_graph(sizes, within):
    """Disjoint cliques (within=True) or a complete multipartite graph
    (within=False) on parts of the given sizes."""
    part = np.repeat(np.arange(len(sizes)), sizes)
    same = part[:, None] == part
    adj = same if within else ~same
    np.fill_diagonal(adj, False)
    return HammingGraph(adj)


class TestInertiaBound:
    """clique_upper_bound reads the count from an LDL^T factorisation; the
    spectrum oracle's eigenvalue count is its reference."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_random_graphs(self, p):
        rng = np.random.default_rng(int(p * 10))
        for L in (2, 3, 4, 5, 7, 12, 31, 64, 150, 333, 700):
            for _ in range(3 if L < 100 else 1):
                g = gnp_graph(L, p, rng)
                assert clique_upper_bound(g) == eigenvalue_bound(g), (L, p)

    # K_m has m - 1 eigenvalues exactly at -1; a complete multipartite graph
    # has many exactly at 0 and at minus a part size
    @pytest.mark.parametrize("sizes", [(1, 1), (2,), (5,), (1, 1, 1), (2, 3), (1, 2, 3, 4),
                                       (4, 4, 4), (7, 1, 3, 9), (30, 20, 10)])
    def test_disjoint_cliques(self, sizes):
        g = block_graph(sizes, within=True)
        assert clique_upper_bound(g) == eigenvalue_bound(g) >= max(sizes)

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1), (2, 3), (1, 2, 3, 4), (4, 4, 4),
                                       (7, 1, 3, 9), (30, 20, 10)])
    def test_complete_multipartite(self, sizes):
        g = block_graph(sizes, within=False)
        assert clique_upper_bound(g) == eigenvalue_bound(g) >= len(sizes)

    def test_edge_list_graph(self):
        petersen = "".join(f"{i} {(i + 1) % 5}\n{i} {i + 5}\n{i + 5} {(i + 2) % 5 + 5}\n"
                           for i in range(5))
        g = graph_from_edge_list(petersen)
        assert g.order == 10 and g.adjacency.sum(axis=1).tolist() == [3] * 10
        # spectrum 3, 1 (x5), -2 (x4)
        assert clique_upper_bound(g) == eigenvalue_bound(g) == 5

    def test_hamming_graphs_of_random_labels(self):
        rng = np.random.default_rng(1)
        for n, q, L in ((2, 3, 6), (3, 2, 8), (3, 4, 40), (4, 3, 60), (5, 4, 300), (6, 2, 64)):
            pats = np.unique(rng.integers(0, q, size=(L, n)), axis=0)
            g = build_hamming_graph(pats[rng.permutation(len(pats))])
            assert clique_upper_bound(g) == eigenvalue_bound(g), (n, q, L)

    def test_two_by_two_pivots(self, monkeypatch):
        # the star K_{1,2}: after pivoting on the centre, the two leaves'
        # block is [[~0, -1], [-1, ~0]], which Bunch-Kaufman takes as a 2x2 pivot
        pivots = []
        real = scipy.linalg.lapack.dsytrf

        def record(*a, **kw):
            out = real(*a, **kw)
            pivots.append(out[1].copy())
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", record)
        star = graph_from_edge_list("0 1\n0 2\n")
        assert clique_upper_bound(star) == eigenvalue_bound(star) == 2
        assert (pivots[-1] < 0).sum() == 2
        g = gnp_graph(150, 0.5, np.random.default_rng(3))
        assert clique_upper_bound(g) == eigenvalue_bound(g)
        assert (pivots[-1] < 0).any()


class TestBruteForce:
    def test_ospm_4(self):
        g = ospm_graph(4)
        res = brute_force_k_clique(g)
        assert res.size == 8 and res.conclusive
        assert is_clique(g, res.indices)

    def test_ofspm_3(self):
        g = ofspm_graph(3)
        res = brute_force_k_clique(g)
        assert res.size == 4 and res.conclusive
        assert is_clique(g, res.indices)

    def test_lowest_rank_clique(self):
        # the scan returns the first clique of its size in rank order
        rng = np.random.default_rng(7)
        for _ in range(30):
            L = int(rng.integers(4, 11))
            upper = np.triu(rng.random((L, L)) < 0.6, k=1)
            g = HammingGraph(adjacency=upper | upper.T)
            res = brute_force_k_clique(g)
            k = res.size
            first = next(
                s for s in (unrank_combination(r, L, k) for r in range(math.comb(L, k)))
                if is_clique(g, s)
            )
            assert res.indices == first

    def test_edgeless_returns_single_vertex(self):
        g = build_hamming_graph([(0, 0), (0, 1)])
        res = brute_force_k_clique(g)
        assert res.size == 1 and res.conclusive

    def test_budget_exhaustion_is_inconclusive(self):
        g = ospm_graph(4)
        res = brute_force_k_clique(g, budget=3)
        assert not res.conclusive and res.size == 0

    def test_time_budget_is_inconclusive(self):
        # C(75, 32) subsets at k = 32 on ofspm(4): the deadline ends the scan
        t0 = time.perf_counter()
        res = brute_force_k_clique(ofspm_graph(4), time_budget=0.2)
        assert time.perf_counter() - t0 < 10
        assert not res.conclusive and not res.settled and res.size == 0

    def test_solver_passes_time_budget(self):
        assert not solver("alg1", time_budget=-1.0)(ospm_graph(4)).conclusive
        assert solver("alg1", time_budget=60.0)(ospm_graph(4)).size == 8

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_time_budget(self, budget):
        with pytest.raises(ValueError, match="time_budget must be finite"):
            solver("alg1", time_budget=budget)
        with pytest.raises(ValueError, match="time_budget must be finite"):
            brute_force_k_clique(ospm_graph(4), time_budget=budget)

    def test_spm_4_2_selects_four(self):
        # the four singleton-block partitions are the clique found here
        g = build_hamming_graph(build_index_codebook("spm", 4, k=2).patterns)
        res = brute_force_k_clique(g)
        assert res.conclusive
        assert is_clique(g, res.indices)
        assert res.size == 4


class TestVertexExclusion:
    @pytest.mark.parametrize("n,expected", [(4, 8), (6, 32), (8, 128)])
    def test_ospm_sizes(self, n, expected):
        g = ospm_graph(n)
        res = vertex_exclusion(g)
        assert res.size == expected
        assert is_clique(g, res.indices)

    @pytest.mark.parametrize("n,expected", [(3, 7), (4, 32)])
    def test_ofspm_sizes(self, n, expected):
        g = ofspm_graph(n)
        res = vertex_exclusion(g)
        assert res.size == expected
        assert is_clique(g, res.indices)

    def test_complete_graph_unchanged(self):
        g = build_hamming_graph(list(itertools.permutations(range(3))))
        res = vertex_exclusion(g)
        assert res.indices == tuple(range(6))

    def test_deterministic(self):
        g = ofspm_graph(4)
        assert vertex_exclusion(g).indices == vertex_exclusion(g).indices

    @pytest.mark.parametrize("variant,n", [
        ("ofspm", 3), ("ofspm", 4), ("ofspm", 5), ("ofspm", 6),
        ("ospm", 4), ("ospm", 6), ("ospm", 8),
    ])  # the graphs of configs/select
    def test_matches_degree_oracle(self, variant, n):
        g = ospm_graph(n) if variant == "ospm" else ofspm_graph(n)
        assert vertex_exclusion(g).indices == vertex_exclusion_degrees(g)


class TestExact:
    def test_ospm_4(self):
        res = exact_max_clique(ospm_graph(4))
        assert res.size == 8 and res.proven_optimal

    def test_ofspm_3(self):
        res = exact_max_clique(ofspm_graph(3))
        assert res.size == 7 and res.proven_optimal

    def test_triangle_plus_isolated(self):
        pats = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
        g = build_hamming_graph(pats)
        res = exact_max_clique(g)
        assert res.size == 3
        assert set(res.indices) == {0, 1, 2}

    def test_deep_search_does_not_recurse(self):
        # one search level per clique vertex: far deeper than Python's
        # default recursion limit
        g = HammingGraph(~np.eye(1100, dtype=bool))
        res = exact_max_clique(g)
        assert res.size == 1100 and res.proven_optimal

    def test_timeout_is_not_settled(self):
        res = exact_max_clique(ofspm_graph(4), time_budget=0.0)
        assert res.proven_optimal is False and not res.settled


class TestSettled:
    @pytest.mark.parametrize("conclusive,proven,settled", [
        (True, None, True), (True, True, True), (False, None, False), (True, False, False),
    ])
    def test_verdict(self, conclusive, proven, settled):
        res = CliqueResult((), "x", ospm_graph(4), 0.0, conclusive=conclusive,
                           proven_optimal=proven)
        assert res.settled is settled


class TestIsClique:
    def test_singleton(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        assert is_clique(g, [3])

    def test_unit_distance_pair(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        assert not is_clique(g, [0, 4])

    def test_index_error(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        with pytest.raises(IndexError):
            is_clique(g, [0, 99])
        with pytest.raises(IndexError):
            is_clique(g, [-1, 2])

    def test_repeated_vertex(self):
        g = build_hamming_graph(TWO_GROUP_PATTERNS)
        assert is_clique(g, [0, 1]) and not is_clique(g, [0, 1, 0])

    @pytest.mark.parametrize("edge_list", [False, True], ids=["patterns", "edge_list"])
    @pytest.mark.parametrize("name", ["ospm_n4", "ofspm_n4", "spm6_3", "ofdm_im6_2",
                                      "random_n3_q12"])
    def test_matches_adjacency(self, name, edge_list):
        """The non-neighbour lists against the m x m adjacency gather, on
        cliques, cliques grown or shrunk by one vertex and random subsets."""
        g = build_hamming_graph(ORACLE_BOOKS[name]())
        if edge_list:
            g = graph_from_edge_list(export_edge_list(g))
            assert g.non_edges is None
        rng = np.random.default_rng(len(name))
        clique = list(vertex_exclusion(g).indices)
        outside = [v for v in range(g.order) if v not in clique]
        subsets = [clique, clique[:-1], [], clique[:1] + clique]
        subsets += [clique + [v] for v in rng.choice(outside, size=min(5, len(outside)))]
        subsets += [rng.choice(g.order, size=k, replace=False) for k in (2, 2, 3, 3, 5)]
        verdicts = []
        for sub in subsets:
            idx = list(sub)
            m = len(idx)
            want = (len(set(idx)) == m
                    and int(g.adjacency[np.ix_(idx, idx)].sum()) == m * (m - 1))
            assert is_clique(g, sub) == want
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_edge_list_reads_subset_rows(self):
        # a 4096-vertex path: its non-neighbour lists would be nearly L^2 int32
        L = 4096
        g = graph_from_edge_list("".join(f"{v} {v + 1}\n" for v in range(L - 1)))
        for sub in ([0, 1], [1, 0], [5], [], [0, 2], [0, 1, 2], [L - 2, L - 1]):
            m = len(sub)
            want = int(g.adjacency[np.ix_(sub, sub)].sum()) == m * (m - 1)
            assert is_clique(g, sub) == want
        assert "non_neighbours" not in vars(g)


class TestInvariants:
    def small_graphs(self):
        for variant, kwargs in (
            ("spm", dict(k=2)), ("ospm", dict(k=2)), ("fspm", {}),
            ("mm", {}), ("dm", dict(d=2)), ("gdm", {}),
        ):
            book = build_index_codebook(variant, 4, **kwargs)
            if 2 <= len(book.patterns) <= 20:
                yield build_hamming_graph(book.patterns)

    def test_results_are_cliques_within_bound(self):
        for g in self.small_graphs():
            bound = clique_upper_bound(g)
            for res in (brute_force_k_clique(g), vertex_exclusion(g),
                        exact_max_clique(g)):
                if res.indices:
                    assert is_clique(g, res.indices)
                assert res.size <= bound

    def test_heuristics_vs_exact(self):
        for g in self.small_graphs():
            exact = exact_max_clique(g)
            assert exact.proven_optimal
            ve = vertex_exclusion(g)
            assert ve.size <= exact.size
            bf = brute_force_k_clique(g)
            k0 = 1 << floor_log2(clique_upper_bound(g))
            assert (bf.size == k0) == (exact.size >= k0)

    def test_selected_codebooks_have_min_rank_two(self):
        scheme = build_scheme("ospm", 4, k=2, m=2, selection="alg2")
        # restrict to index-distinct pairs: compare pattern words only
        pats = np.array(scheme.book.patterns)
        dists = (pats[:, None, :] != pats[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists, 99)
        assert dists.min() >= 2
