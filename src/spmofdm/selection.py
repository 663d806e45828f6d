"""Codebook selection as clique search on the Hamming graph.

Vertices are index patterns; two are adjacent when their Hamming distance
is at least two, which is exactly the condition for the corresponding
codeword difference to have rank >= 2. Any clique is therefore a codebook
whose index-error events all carry diversity order two.

Three solvers are provided: a brute-force k-clique scan that streams
candidate subsets in lexicographic (rank) order, the fast greedy
vertex-exclusion heuristic (repeatedly drop a minimum-degree vertex until
the remainder is complete), and an exact branch-and-bound maximum-clique
solver with a greedy-coloring bound used as a validation oracle on small
graphs.
"""

import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .combinatorics import floor_log2

__all__ = [
    "HammingGraph",
    "CliqueResult",
    "BudgetExhausted",
    "build_hamming_graph",
    "graph_from_edge_list",
    "clique_upper_bound",
    "is_clique",
    "brute_force_k_clique",
    "vertex_exclusion",
    "exact_max_clique",
    "solver",
]

# Default wall-clock budget of the exact solver, in seconds.
TIME_BUDGET_S = 60.0

# Tolerance when counting adjacency eigenvalues "not exceeding -1"; absorbs
# rounding on eigenvalues that are exactly -1.
EIG_TOL = 1e-9

# Largest vertex count of a graph, from patterns or an edge list (ofspm(6)'s
# graph has 4683); the adjacency and its factorisation for the clique bound
# take O(L^2) memory.
MAX_EDGE_LIST_ORDER = 8192


class BudgetExhausted(RuntimeError):
    """Brute-force scan hit its subset budget before settling the question."""


@dataclass(frozen=True)
class HammingGraph:
    """A graph on index patterns (or on the vertices of an edge list)."""

    adjacency: np.ndarray  # bool, symmetric, zero diagonal
    # (2, E) int32: each unordered non-adjacent pair once, as
    # build_hamming_graph finds them (the distance-1 pairs); None derives
    # the non-neighbour lists from the adjacency
    non_edges: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.adjacency.setflags(write=False)

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def non_neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's non-neighbours, self left out, in CSR form (ptr,
        idx): vertex v's are idx[ptr[v]:ptr[v + 1]] (int32, ascending).
        Sorted out of non_edges when the graph has them; otherwise read
        off the adjacency one row at a time, so that the lists (up to L^2
        int32) are the only large allocation."""
        L = self.order
        ptr = np.zeros(L + 1, dtype=np.int64)
        if self.non_edges is not None:
            src, dst = np.concatenate((self.non_edges, self.non_edges[::-1]), axis=1)
            np.cumsum(np.bincount(src, minlength=L), out=ptr[1:])
            return ptr, dst[np.argsort(src.astype(np.int64) * L + dst)]
        np.cumsum((L - 1) - self.adjacency.sum(axis=1), out=ptr[1:])
        idx = np.empty(ptr[-1], dtype=np.int32)
        for v, row in enumerate(self.adjacency):
            miss = np.flatnonzero(~row)
            idx[ptr[v]:ptr[v + 1]] = miss[miss != v]
        return ptr, idx

    @cached_property
    def clique_bound(self) -> int:
        """1 + #(eigenvalues <= -1 + EIG_TOL), which by Sylvester's law is 1 plus
        the negative inertia of A + (1 - EIG_TOL) I, read off D of one blocked
        Bunch-Kaufman LDL^T: a 1x1 pivot (ipiv > 0) is one eigenvalue's sign,
        and a 2x2 block (ipiv < 0 twice) has det < 0, so one negative."""
        from scipy.linalg import lapack  # the package's only SciPy use
        a = self.adjacency.astype(np.float64, order="F")
        np.fill_diagonal(a, 1.0 - EIG_TOL)
        lwork = int(lapack.dsytrf_lwork(self.order, lower=1)[0])  # the default is unblocked
        ldu, ipiv, info = lapack.dsytrf(a, lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"dsytrf: illegal argument {-info}")
        d = ldu.diagonal()  # a zero pivot (info > 0) is an eigenvalue at -1 + EIG_TOL
        return int(((ipiv > 0) & (d <= 0)).sum() + (ipiv < 0).sum() // 2) + 1


@dataclass(frozen=True)
class CliqueResult:
    indices: tuple[int, ...]
    algorithm: str
    graph: HammingGraph = field(repr=False, compare=False)
    elapsed_s: float
    conclusive: bool = True  # False: budget ran out before an answer
    proven_optimal: bool | None = None  # exact solver only

    @property
    def bound(self) -> int:
        return self.graph.clique_bound

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def settled(self) -> bool:
        """The solver finished: no budget ran out, and an exact search
        proved its clique maximum."""
        return self.conclusive and self.proven_optimal is not False


def build_hamming_graph(patterns) -> HammingGraph:
    """Adjacency under the distance >= 2 rule; vertex order = input order.

    Two distinct patterns are non-adjacent iff they differ in exactly one
    position t, that is iff they agree once t is deleted. So for each t the
    patterns are sorted with t as the least significant key, and every pair
    inside a run that agrees off t is a non-edge; the adjacency is all-True
    minus those pairs and the diagonal. The pairs are kept on the graph as
    its non-neighbour lists."""
    pats = tuple(tuple(p) for p in patterns)
    if not 2 <= len(pats) <= MAX_EDGE_LIST_ORDER:
        raise ValueError(f"need 2 to {MAX_EDGE_LIST_ORDER} patterns, got {len(pats)}")
    n = len(pats[0])
    if any(len(p) != n for p in pats):
        raise ValueError("patterns must all have the same length")
    if len(set(pats)) != len(pats):
        raise ValueError("duplicate patterns")
    P = np.array(pats)
    L = len(pats)
    pairs = []
    for t in range(n):
        keys = P[:, [t, *range(t), *range(t + 1, n)]]  # lexsort: last key first
        order = np.lexsort(keys.T).astype(np.int32)
        rest = keys[order, 1:]
        run = np.concatenate(([0], np.cumsum((rest[1:] != rest[:-1]).any(axis=1))))
        for k in range(1, L):  # runs are contiguous: pair each row with the k-th after it
            same = run[k:] == run[:-k]
            if not same.any():
                break
            pairs.append(np.stack((order[:-k][same], order[k:][same])))
    non_edges = np.concatenate(pairs, axis=1) if pairs else np.empty((2, 0), np.int32)
    adj = np.ones((L, L), dtype=bool)
    adj[non_edges[0], non_edges[1]] = adj[non_edges[1], non_edges[0]] = False
    np.fill_diagonal(adj, False)
    return HammingGraph(adj, non_edges)


def clique_upper_bound(graph: HammingGraph) -> int:
    """Eigenvalue bound on the clique number: one plus the number of
    adjacency eigenvalues that do not exceed -1 (HammingGraph.clique_bound)."""
    return graph.clique_bound


def is_clique(graph: HammingGraph, subset) -> bool:
    """True iff no member of the subset is a non-neighbour of another."""
    idx = list(subset)
    L = graph.order
    for i in idx:
        if not 0 <= i < L:
            raise IndexError(f"vertex index {i} out of range [0, {L})")
    if len(set(idx)) != len(idx):
        return False
    if graph.non_edges is None:  # an edge list: its own rows, not every vertex's list
        return int(graph.adjacency[np.ix_(idx, idx)].sum()) == len(idx) * (len(idx) - 1)
    ptr, non = graph.non_neighbours
    member = np.zeros(L, dtype=bool)
    member[idx] = True
    return not (np.repeat(member, np.diff(ptr)) & member[non]).any()


def brute_force_k_clique(graph: HammingGraph, budget: int | None = None,
                         time_budget: float = TIME_BUDGET_S) -> CliqueResult:
    """Scan for a k-clique with k = 2^(floor(log2 bound) - kappa).

    Candidate k-subsets are streamed in lexicographic order (rank 0
    first), so memory stays O(k) and the winner is the lowest-rank
    success. When no k-clique exists the size is halved (kappa += 1) and
    the scan restarts; k = 1 always succeeds, so termination is
    guaranteed. A budget caps the total number of subsets examined across
    all levels, and time_budget the seconds the scan takes; hitting
    either yields an inconclusive result, which is distinct from a proven
    absence. A non-finite time_budget raises ValueError.
    """
    _finite(time_budget)
    exp0 = floor_log2(clique_upper_bound(graph))
    t0 = time.perf_counter()
    deadline = t0 + time_budget
    adj = graph.adjacency
    subsets = itertools.chain.from_iterable(  # k <= bound <= L; k = 1 always succeeds
        itertools.combinations(range(graph.order), 1 << e) for e in range(exp0, -1, -1))
    if budget is not None:
        subsets = itertools.islice(subsets, max(budget, 0))
    subsets = itertools.takewhile(lambda _: time.perf_counter() <= deadline, subsets)
    found = next((s for s in subsets
                  if int(adj[np.ix_(s, s)].sum()) == len(s) * (len(s) - 1)), None)
    return CliqueResult(
        indices=found or (), algorithm="alg1", graph=graph,
        elapsed_s=time.perf_counter() - t0, conclusive=found is not None,
    )


def vertex_exclusion(graph: HammingGraph) -> CliqueResult:
    """Drop a minimum-degree vertex (ties: lowest index) until the remaining
    vertices are pairwise adjacent. miss[v] counts v's non-neighbours among
    the other remaining vertices, so the vertex to drop is the first maximum
    of miss; dropping v decrements miss over v's non-neighbour list
    (HammingGraph.non_neighbours) and sets miss[v] = -L, which later
    decrements keep negative."""
    t0 = time.perf_counter()
    ptr, idx = graph.non_neighbours
    L = graph.order
    miss = np.diff(ptr)
    while True:
        v = int(miss.argmax())  # argmax returns the first maximum
        if miss[v] <= 0:
            break
        miss[idx[ptr[v]:ptr[v + 1]]] -= 1
        miss[v] = -L
    indices = tuple(int(i) for i in np.nonzero(miss >= 0)[0])
    return CliqueResult(
        indices=indices, algorithm="alg2", graph=graph,
        elapsed_s=time.perf_counter() - t0,
    )


def _color_sort(P: int, adj_masks):
    """Greedy coloring of the candidate set P (bitmask). Returns vertices in
    color order with their color numbers (1-based); the color number bounds
    the clique size reachable inside P."""
    colored = []
    colors = []
    color = 0
    rest = P
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            colored.append(v)
            colors.append(color)
            rest &= ~(1 << v)
            avail &= ~adj_masks[v]
    return colored, colors


def _finite(time_budget: float) -> float:
    """A NaN or infinite deadline never passes, so it raises ValueError."""
    if not math.isfinite(time_budget):
        raise ValueError(f"time_budget must be finite, got {time_budget}")
    return time_budget


def exact_max_clique(graph: HammingGraph, time_budget: float = TIME_BUDGET_S) -> CliqueResult:
    """Exact maximum clique by branch and bound with a greedy-coloring bound
    (bitmask implementation, practical to ~100 vertices). If the time
    budget runs out the best clique found so far is returned with
    proven_optimal=False. A non-finite time_budget raises ValueError."""
    _finite(time_budget)
    t0 = time.perf_counter()
    deadline = t0 + time_budget
    L = graph.order
    adj_masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                 for row in graph.adjacency]

    best: list[int] = []
    current: list[int] = []  # the vertex that opened each node below the root
    # One frame per open node: [candidate set P, vertices in color order,
    # their colors]. The last vertex is tried next; a tried vertex leaves
    # both lists and P. Past the deadline no node opens, and the open
    # frames run out.
    timed_out = time.perf_counter() > deadline
    root = (1 << L) - 1
    stack = [] if timed_out else [[root, *_color_sort(root, adj_masks)]]
    while stack:
        frame = stack[-1]
        P, verts, colors = frame
        if not verts or len(current) + colors[-1] <= len(best):
            stack.pop()
            if current:
                current.pop()
            continue
        v = verts.pop()
        colors.pop()
        frame[0] = P & ~(1 << v)
        newP = P & adj_masks[v]
        if not newP:
            if len(current) >= len(best):
                best = [*current, v]
            continue
        timed_out = timed_out or time.perf_counter() > deadline
        if not timed_out:
            stack.append([newP, *_color_sort(newP, adj_masks)])
            current.append(v)

    return CliqueResult(
        indices=tuple(sorted(best)), algorithm="exact", graph=graph,
        elapsed_s=time.perf_counter() - t0, proven_optimal=not timed_out,
    )


def solver(algorithm: str, budget: int | None = None,
           time_budget: float = TIME_BUDGET_S) -> Callable[[HammingGraph], CliqueResult]:
    """The solver named algorithm, as a function of the graph: alg1 (brute
    force, capped by budget and time_budget seconds), alg2 (vertex
    exclusion) or exact (capped by time_budget seconds). An unknown name,
    or a non-finite time_budget for alg1 or exact, raises ValueError here,
    before any graph is built."""
    if algorithm == "alg1":
        return partial(brute_force_k_clique, budget=budget, time_budget=_finite(time_budget))
    if algorithm == "alg2":
        return vertex_exclusion
    if algorithm == "exact":
        return partial(exact_max_clique, time_budget=_finite(time_budget))
    raise ValueError(f"unknown algorithm {algorithm!r}")


def graph_from_edge_list(text: str) -> HammingGraph:
    """Graph from one 0-based 'l lhat' pair per line, # comments allowed.
    Vertex count is one past the largest index seen."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            i, j = map(int, body.split())
        except ValueError:
            raise ValueError(f"edge list line {lineno}: expected 'i j' (two integers), "
                             f"got {line!r}") from None
        if i < 0 or j < 0 or i == j:
            raise ValueError(f"edge list line {lineno}: bad edge ({i}, {j})")
        if max(i, j) >= MAX_EDGE_LIST_ORDER:
            raise ValueError(f"edge list line {lineno}: vertex {max(i, j)} above the "
                             f"limit {MAX_EDGE_LIST_ORDER - 1}")
        edges.append((i, j))
    if not edges:
        raise ValueError("edge list needs at least one edge")
    i, j = np.array(edges).T
    L = max(i.max(), j.max()) + 1
    adj = np.zeros((L, L), dtype=bool)
    adj[i, j] = adj[j, i] = True
    return HammingGraph(adj)
