"""Index codebooks and full codeword books for the modulation variants.

An index codebook is an ordered list of label vectors (patterns). The
variants differ only in which patterns they admit:

* spm      canonical partitions of [n] into k blocks        count S(n,k)
* ospm     surjective labelings [n] -> [k]                  count k! S(n,k)
* fspm     canonical partitions, any block count            count bell(n)
* ofspm    all surjective labelings, any block count        count ordered_bell(n)
* mm       permutation patterns (one block per subcarrier)  count n!
* dm       two-label patterns with exactly d zeros          count C(n,d)
* gdm      all two-label patterns                           count 2^n
* ofdm-im  active/null patterns, label 1 reserved for null  count C(n,n_active)
* ofdm     single all-zeros pattern (no index bits)         count 1

A transmitted block maps f = f1 + f2 bits: the top f1 bits pick one of the
first 2^f1 patterns, the rest Gray-modulate one symbol per subcarrier from
the constellation assigned to that subcarrier's label.
"""

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import combinatorics as comb
from . import selection as _sel
from .combinatorics import floor_log2, optimal_k, optimal_k_ordered
from .constellations import QAM_PARENT, ConstellationFamily, psk_family, qam_family

__all__ = [
    "VARIANTS",
    "IndexCodebook",
    "Scheme",
    "RateFigures",
    "build_index_codebook",
    "build_scheme",
    "restrict",
    "codebook_dmin",
    "rate",
    "asymptotic_rate",
    "asymptotic_max_rate",
    "export_codebook",
]

VARIANTS = ("spm", "ospm", "fspm", "ofspm", "mm", "dm", "gdm", "ofdm-im", "ofdm")

# Most patterns a book may enumerate, read off the exact count first: admits
# ofspm(8) (545,835) and mm(9), refuses ofspm(9) (7,087,261) and mm(10).
MAX_PATTERNS = 1 << 20
# Most entries (2^f rows times n) of a scheme's symbol table, and so of its
# codeword table: 128 MiB of indices and 256 MiB of points. Admits
# unselected ofspm(6,2) (2^18 x 6), refuses ofspm(7,2) (2^22 x 7).
MAX_TABLE_SIZE = 1 << 24

_ALIASES = {
    "mm-ofdm-im": "mm",
    "dm-ofdm-im": "dm",
    "gdm-ofdm-im": "gdm",
    "im": "ofdm-im",
}


def canonical_variant(variant: str) -> str:
    v = variant.strip().lower()
    v = _ALIASES.get(v, v)
    if v not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return v


@dataclass(frozen=True)
class IndexCodebook:
    variant: str
    n: int
    k: int  # number of distinct labels any pattern may use
    patterns: tuple[tuple[int, ...], ...]

    @property
    def f1(self) -> int:
        return floor_log2(len(self.patterns))


def _im_patterns(n, size):
    """Label 0 on each lexicographic size-subset of positions, 1 elsewhere."""
    for pos in itertools.combinations(range(n), size):
        yield tuple(0 if i in pos else 1 for i in range(n))


class _Refused(ValueError):
    """A request a rate sweep stops at instead of skipping the row: a
    variant's required parameter is missing, or n (and so every later n)
    is above the counting limit."""


@dataclass(frozen=True)
class _Variant:
    name: str  # canonical
    k: int  # label count
    count: int  # exact pattern count
    patterns: Callable[[], Iterable[tuple[int, ...]]]  # lazy, documented order
    active: int  # subcarriers carrying a data symbol
    params: tuple[int, ...] = ()  # the scheme name's entries between n and m

    def enumerate(self) -> tuple[tuple[int, ...], ...]:
        """The patterns, refused from the count alone above MAX_PATTERNS."""
        if self.count > MAX_PATTERNS:
            raise ValueError(f"{self.name} has {self.count} patterns, above the "
                             f"enumeration limit {MAX_PATTERNS}")
        return tuple(self.patterns())


def _variant(variant, n, k=None, d=None, n_active=None) -> _Variant:
    """The one table of variant rules: canonical name, n from 1 to
    MAX_COUNT_N, k=auto (spm/ospm: rate-maximizing block count, mm: n;
    other variants ignore k), checks and defaults, and side by side each
    variant's label count, exact pattern count and pattern enumeration in
    its documented order."""
    v = canonical_variant(variant)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > comb.MAX_COUNT_N:
        raise _Refused(f"n must be <= {comb.MAX_COUNT_N}, got {n}")
    if v in ("spm", "ospm"):
        if k == "auto":
            k = optimal_k(n).argmax if v == "spm" else optimal_k_ordered(n)
        if k is None:
            raise _Refused(f"{v} requires k")
    if v == "spm":  # stirling2 checks 1 <= k <= n
        return _Variant(v, k, comb.stirling2(n, k),
                        lambda: comb.enumerate_partitions(n, k), n, (k,))
    if v == "ospm":
        return _Variant(v, k, math.factorial(k) * comb.stirling2(n, k),
                        lambda: comb.enumerate_ordered_partitions(n, k), n, (k,))
    if v == "fspm":
        return _Variant(v, n, comb.bell(n), lambda: (
            p for kk in range(1, n + 1) for p in comb.enumerate_partitions(n, kk)), n)
    if v == "ofspm":
        return _Variant(v, n, comb.ordered_bell(n), lambda: (
            p for kk in range(1, n + 1) for p in comb.enumerate_ordered_partitions(n, kk)), n)
    if v == "mm":
        if k not in (None, "auto", n):
            raise ValueError(f"mm requires k = n, got k={k}, n={n}")
        return _Variant(v, n, math.factorial(n), lambda: itertools.permutations(range(n)), n)
    if v == "dm":
        d = n // 2 if d is None else d
        if not 1 <= d <= n - 1:
            raise ValueError(f"dm requires 1 <= d <= n-1, got d={d}")
        return _Variant(v, 2, math.comb(n, d), lambda: _im_patterns(n, d), n, (d,))
    if v == "gdm":
        return _Variant(v, 2, 1 << n, lambda: itertools.product((0, 1), repeat=n), n)
    if v == "ofdm-im":  # label 0 = data constellation, label 1 = reserved null
        if n_active is None:
            raise _Refused("ofdm-im requires n_active")
        if not 1 <= n_active <= n:
            raise ValueError(f"need 1 <= n_active <= n, got {n_active}")
        return _Variant(v, 2, math.comb(n, n_active),
                        lambda: _im_patterns(n, n_active), n_active, (n_active,))
    return _Variant(v, 1, 1, lambda: [(0,) * n], n)  # ofdm


def build_index_codebook(variant, n, k=None, d=None, n_active=None) -> IndexCodebook:
    """Construct the full (unselected) pattern list for a variant, in the
    deterministic enumeration order documented per variant."""
    spec = _variant(variant, n, k, d, n_active)
    return IndexCodebook(variant=spec.name, n=n, k=spec.k, patterns=spec.enumerate())


@dataclass(frozen=True)
class Scheme:
    """A transmittable configuration: an index codebook and its constellation
    family. The bit map and the 2^f-row codeword table derive from them.

    Word w = (p << f2) | r sends pattern p, and on subcarrier i the point
    (r >> offsets[p, i]) & (2^widths[p, i] - 1) of that subcarrier's label:
    the modulation word is read MSB-first across subcarriers."""

    name: str
    book: IndexCodebook
    family: ConstellationFamily

    def __post_init__(self):
        if self.patterns.max() >= self.family.K:
            raise ValueError(f"pattern uses label {self.patterns.max()} but family "
                             f"has only {self.family.K} members")
        if len(set(self.widths.sum(axis=1))) != 1:
            raise ValueError("patterns disagree on modulation bit width")

    @property
    def f1(self) -> int:
        return self.book.f1

    @functools.cached_property
    def f2(self) -> int:
        return int(self.widths[0].sum())

    @property
    def f(self) -> int:
        return self.f1 + self.f2

    @property
    def n(self) -> int:
        return self.book.n

    @property
    def rate_bits_per_subcarrier(self) -> float:
        return self.f / self.book.n

    @functools.cached_property
    def patterns(self) -> np.ndarray:
        """The 2^f1 mapped patterns, (2^f1, n) labels."""
        return _frozen(np.array(self.book.patterns[: 1 << self.f1], dtype=np.intp))

    @functools.cached_property
    def points(self) -> np.ndarray:
        """(K, M) point table, row k = member k; a short member (the ofdm-im
        null) repeats its own points."""
        fam = self.family
        return _frozen(np.stack([np.resize(s, fam.M) for s in fam.members]))

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """(2^f1, n) symbol-index bit width of each mapped subcarrier."""
        fam = self.family
        per_label = np.array([fam.bits_per_symbol(k) for k in range(fam.K)])
        return _frozen(per_label[self.patterns])

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """(2^f1, n) bit offset of each subcarrier's symbol index in the word."""
        return _frozen(self.f2 - np.cumsum(self.widths, axis=1))

    @functools.cached_property
    def symbols(self) -> np.ndarray:
        """(2^f, n) index of word w's point on each subcarrier into the
        members laid end to end, np.concatenate(family.members); refused
        from its size alone above MAX_TABLE_SIZE entries."""
        if (1 << self.f) * self.n > MAX_TABLE_SIZE:
            raise ValueError(f"{self.name} needs a 2^{self.f} x {self.n} codeword table, "
                             f"above the limit {MAX_TABLE_SIZE} entries")
        starts = np.cumsum([0, *map(len, self.family.members[:-1])])
        r = np.arange(1 << self.f2)[None, :, None]
        sym = (r >> self.offsets[:, None]) & ((1 << self.widths[:, None]) - 1)
        return _frozen((starts[self.patterns[:, None]] + sym).reshape(-1, self.n))

    @functools.cached_property
    def codewords(self) -> np.ndarray:
        """(2^f, n) complex table; row index == transmitted bit word."""
        return _frozen(np.concatenate(self.family.members)[self.symbols])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def restrict(book: IndexCodebook, indices, pad_to: int | None = None) -> IndexCodebook:
    """Codebook on a vertex subset (ascending original index), optionally
    padded with the lexicographically smallest unused patterns. Padding
    normally reintroduces unit-distance pairs, so a padded book is usually
    not a clique."""
    chosen = [book.patterns[i] for i in sorted(indices)]
    if pad_to is not None:
        if pad_to < len(chosen):
            raise ValueError(f"pad_to={pad_to} below selection size {len(chosen)}")
        rest = sorted(set(book.patterns) - set(chosen))
        chosen.extend(rest[: pad_to - len(chosen)])
        if len(chosen) < pad_to:
            raise ValueError(f"cannot pad to {pad_to}: only {len(chosen)} patterns exist")
    return IndexCodebook(
        variant=book.variant, n=book.n, k=book.k, patterns=tuple(chosen),
    )


MAX_CONTRACTION_SIZE = 1 << 22  # entries an alphabet contraction holds at once

# _least_pair's two sweeps' cost per prod U sum U against the row walk's
# per pair-subcarrier: 0.17-0.53 measured on dense and sparse tables (about
# 1 below a few hundred rows), 0.5 errs toward the walk
_DMIN_WEIGHT = 0.5


def column_alphabets(codewords: np.ndarray, weight: float):
    """Per-subcarrier alphabets of a (J, n) codeword array, for kernels
    that turn a sum or minimum over row pairs of a per-subcarrier product
    or sum into a contraction over U = (|u_0|, ..., |u_{n-1}|), u_t =
    unique(X[:, t]). Returns (d2, codes, U): d2[t][x, y] = |u_x - u_y|^2
    on u_t, and codes[i] row i's tuple of indices into the u_t, raveled
    in C order.

    Returns None where walking the J(J - 1)/2 row pairs is cheaper: when
    the contraction's work, weight terms per code tuple and alphabet
    point (weight * prod U * sum U), exceeds the walk's J^2 n / 2
    pair-subcarrier terms, or when its operands would exceed
    MAX_CONTRACTION_SIZE entries. A dense table (prod U << J^2) contracts;
    a sparse one (few rows over large alphabets) walks."""
    X = np.asarray(codewords)
    J, n = X.shape
    alphabets, codes = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    shape = tuple(map(len, alphabets))
    size = math.prod(shape)
    if (size + sum(u * u for u in shape) > MAX_CONTRACTION_SIZE
            or weight * size * sum(shape) > J * J * n / 2):
        return None
    d2 = [np.abs(u[:, None] - u[None, :]) ** 2 for u in alphabets]
    return d2, np.ravel_multi_index(codes, shape), shape


def codebook_dmin(codewords: Scheme | np.ndarray) -> tuple[float, float, int]:
    """Distance profile of a full codeword book: a Scheme, or a (J, n)
    codeword table such as its codewords.

    Returns (d_min, d_min_rank_limited, min_rank): the global minimum
    Euclidean distance over all codeword pairs, the minimum distance among
    pairs whose difference has the minimum number of nonzero entries, and
    that minimum count (the rank of the diagonal difference matrix).
    Where that is cheaper than the pair walk (column_alphabets), one
    (min, +) sweep over the per-subcarrier alphabets finds d_min and a
    second, rank first, the rank-limited pair (_least_pair); exact either
    way, with the same sums.
    """
    X = np.asarray(codewords.codewords if isinstance(codewords, Scheme) else codewords)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 codewords")
    alphabets = column_alphabets(X, weight=_DMIN_WEIGHT)
    if alphabets is None:
        return _dmin_pairs(X)
    d2, rows, shape = alphabets
    if np.unique(rows).size < rows.size:
        return 0.0, 0.0, 0  # a repeated row is a pair at distance 0
    _, best = _least_pair(rows, shape, d2)
    min_rank, best_rl = _least_pair(rows, shape, d2, True)
    return math.sqrt(best), math.sqrt(best_rl), min_rank


def _dmin_pairs(X):
    """codebook_dmin row by row: each row against all later ones."""
    best = math.inf
    best_rl = (X.shape[1] + 1, math.inf)  # (rank, d^2), compared lexicographically
    for i in range(X.shape[0] - 1):
        d2 = np.abs(X[i + 1 :] - X[i]) ** 2
        dist2 = d2.sum(axis=1)
        ranks = (d2 > 1e-24).sum(axis=1)
        best = min(best, float(dist2.min()))
        r = int(ranks.min())
        best_rl = min(best_rl, (r, float(dist2[ranks == r].min())))
    min_rank, d2_rl = best_rl
    return math.sqrt(best), math.sqrt(d2_rl), min_rank


def _least_pair(rows, shape, d2, ranked=False):
    """Least sum_t d2_t over pairs of the distinct code tuples rows, as
    (n + 1, d^2); ranked, the lexicographically least (sum_t r_t, sum_t
    d2_t) with r_t = d2_t > 1e-24. One left-to-right (min, +) sweep over
    shape: its state holds the pairs that already differ, indexed by the
    first row's tuple with the second row's points on the columns swept.
    At column t they take the full (r_t, d2_t) table, in place since its
    diagonal is (0, 0), and the rows, where nothing differs yet and (0, 0)
    is least, its off-diagonal part. Each d^2 is summed in column order, as
    the row walk sums it; rounding is monotone, so the least partial sum
    stays least."""
    n, size = len(shape), math.prod(shape)
    dt = np.min_scalar_type(2 * n + 2)  # n + 1 marks no pair and the diagonal
    dist, rank = np.full(size, math.inf), np.full(size, n + 1, dt)
    seed, cand, seed_r, cand_r, bar = np.empty(size), np.empty(size), *np.empty((3, size), dt)
    better = np.empty(size, bool)
    for t in range(n):
        off, r = d2[t].copy(), (d2[t] > 1e-24).astype(dt)
        np.fill_diagonal(off, math.inf)
        np.fill_diagonal(r, n + 1)
        np.copyto(seed, dist)
        np.copyto(seed_r, rank)
        seed[rows], seed_r[rows] = 0.0, 0
        view = (math.prod(shape[:t]), shape[t], -1)
        s, d, c, sr, rk, cr, br, b = (a.reshape(view) for a in (
            seed, dist, cand, seed_r, rank, cand_r, bar, better))
        for x in range(shape[t]):  # into buffers of prod(shape) entries
            np.add(s[:, x, None], off[x][:, None], out=c)
            if not ranked:
                np.minimum(d, c, out=d)
                continue
            np.add(sr[:, x, None], r[x][:, None], out=cr)
            np.less(c, d, out=b)
            np.add(rk, b, out=br)  # cand < (rk, d) iff cr < rk + (c < d)
            np.less(cr, br, out=b)
            np.copyto(rk, cr, where=b)
            np.copyto(d, c, where=b)
    least = rank[rows].min()
    return int(least), float(dist[rows][rank[rows] == least].min())


@dataclass(frozen=True)
class RateFigures:
    variant: str
    n: int
    k: int  # label count, k=auto resolved
    m: int
    f1: int
    f2: int
    count: int  # full pattern count (exact)

    @property
    def rate(self) -> float:
        """Bits per subcarrier with floor(log2) index mapping."""
        return (self.f1 + self.f2) / self.n

    @property
    def raw_rate(self) -> float:
        """Bits per subcarrier if every pattern could be used (unfloored)."""
        return (math.log2(self.count) + self.f2) / self.n


def rate(variant, n, k=None, m=2, d=None, n_active=None, usable_patterns=None) -> RateFigures:
    """Data-rate figures for a variant.

    usable_patterns, when given (e.g. the size of a clique-selected book),
    replaces the full count in the floored f1 term; raw_rate always uses
    the full count.
    """
    spec = _variant(variant, n, k, d, n_active)
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two, got {m}")
    usable = spec.count if usable_patterns is None else usable_patterns
    if not 1 <= usable <= spec.count:
        raise ValueError(f"usable_patterns must be in [1, {spec.count}], got {usable}")
    return RateFigures(variant=spec.name, n=n, k=spec.k, m=m, f1=floor_log2(usable),
                       f2=spec.active * int(math.log2(m)), count=spec.count)


_LOG2_E = math.log2(math.e)


def asymptotic_rate(variant, k, m) -> float:
    """Large-n limit of the per-subcarrier rate at fixed block count k."""
    v = canonical_variant(variant)
    if v not in ("spm", "ospm"):
        raise ValueError(f"fixed-k asymptote applies to spm/ospm, not {variant!r}")
    return math.log2(k * m)


def asymptotic_max_rate(variant, n, m) -> float:
    """Asymptotic rate at the rate-maximizing block count (n >= 2)."""
    v = canonical_variant(variant)
    if n < 2:
        raise ValueError(f"no asymptote defined for n={n}")
    if v in ("spm", "fspm"):
        return math.log2(n / math.log(n)) + math.log2(m) - _LOG2_E
    if v in ("ospm", "ofspm"):
        return math.log2(n) + math.log2(m) - math.log2(math.e * math.log(2))
    raise ValueError(f"no asymptote defined for {variant!r}")


def _im_family(m: int, n: int, n_active: int) -> ConstellationFamily:
    """Active constellation boosted by sqrt(n/n_active) plus the null point,
    so per-block energy matches all-active schemes."""
    base = psk_family(m, 1, 1).members[0] * math.sqrt(n / n_active)
    return ConstellationFamily(members=(base, np.zeros(1, dtype=complex)))


def build_scheme(
    variant,
    n,
    k=None,
    m=2,
    d=None,
    n_active=None,
    constellation="psk",
    selection="none",
    pad_to=None,
    budget=None,
    time_budget=_sel.TIME_BUDGET_S,
    name=None,
) -> Scheme:
    """One-stop construction: codebook, optional clique selection and the
    matching constellation family.

    PSK identifiers are rotated M-PSK with max(n, labels) rotation slots
    (one slot per subcarrier, the multi-mode construction); QAM
    identifiers are cosets of 16-QAM. The solver and the constellation are
    checked before the book is enumerated. A selection that runs out of its
    budget, or an exact search that runs out of time, raises
    BudgetExhausted.
    """
    spec = _variant(variant, n, k, d, n_active)
    v = spec.name
    solve = None if selection == "none" else _sel.solver(selection, budget, time_budget)
    if solve is None and pad_to is not None:
        raise ValueError("pad_to only applies together with selection")
    if constellation not in ("psk", "qam"):
        raise ValueError(f"unknown constellation {constellation!r}")
    if v == "ofdm-im" and constellation != "psk":
        raise ValueError(f"ofdm-im uses the psk data constellation, not {constellation!r}")
    book = IndexCodebook(variant=v, n=n, k=spec.k, patterns=spec.enumerate())

    if solve is not None:
        res = solve(_sel.build_hamming_graph(book.patterns))
        if not res.settled:
            raise _sel.BudgetExhausted(f"{selection} selection on {v}({n}) ran out of budget")
        book = restrict(book, res.indices, pad_to=pad_to)

    if v == "ofdm-im":
        family = _im_family(m, n, spec.active)
    else:
        k_needed = max(max(p) for p in book.patterns) + 1
        if constellation == "psk":
            family = psk_family(m, k_needed, max(n, k_needed))
        else:
            levels = max(1, math.ceil(math.log2(k_needed))) if k_needed > 1 else 0
            if QAM_PARENT >> levels != m:
                raise ValueError(
                    f"{QAM_PARENT}-QAM split {levels} times gives "
                    f"{QAM_PARENT >> levels}-point members, not m={m}"
                )
            family = ConstellationFamily(members=qam_family(levels).members[:k_needed])

    if name is None:
        name = f"{v}({','.join(str(x) for x in (n, *spec.params, m))})"
    return Scheme(name, book, family)


def export_codebook(book: IndexCodebook, m: int | None = None) -> str:
    """Header 'variant N K M count' then one line of labels per pattern."""
    head = f"{book.variant} {book.n} {book.k} {m if m is not None else '-'} {len(book.patterns)}"
    lines = [head]
    lines += [" ".join(str(x) for x in p) for p in book.patterns]
    return "\n".join(lines) + "\n"
