"""The three workloads: fixed job lists that make the same library calls as
the spmofdm CLI commands (`ber`, `rate-mc`, `bound`, `select`,
`codebook`), plus the set-up that builds their inputs.

The scheme and graph parameters are the scheme lines of the committed
configs (named next to each entry). They are written out here, not read
from `configs/`, so that an edit to an experiment config cannot change
the benchmark silently.

Each workload's job list covers some of the five paths. Small fixed probe
jobs cover the others, outside the job list's timer, so that every
end-to-end metric is a measured number on every workload while wall_s
stays the time of the job list alone.
"""

import hashlib
from dataclasses import dataclass

from spmofdm import analysis, codebook, selection, simulation

MIN_ERRORS = 400  # committed min_errors of every ber config

# build_scheme arguments, keyed by the name used in metric names.
SCHEMES = {
    "ofdmbpsk": dict(variant="ofdm", n=1, m=2),  # ber_low_order/ofdm_bpsk, rate_mc_low_order/ofdm_bpsk
    "mm22": dict(variant="mm", n=2, m=2),  # ber_low_order/mm_2_2, rate_mc_low_order/mm_2_2
    "ospm422": dict(variant="ospm", n=4, k=2, m=2, selection="alg1"),  # ber_low_order/ospm_4_2_2, rate_mc_low_order/ospm_4_2_2
    "ofspm42": dict(variant="ofspm", n=4, m=2, selection="alg2"),  # ber_full_qpsk/ofspm_4_2
    "ofspm44": dict(variant="ofspm", n=4, m=4, selection="alg2"),  # ber_full_8psk_qam/ofspm_4_4_psk
    "mm44": dict(variant="mm", n=4, m=4),  # ber_full_8psk_qam/mm_4_4
    "dm42": dict(variant="dm", n=4, m=2),  # rate_mc_low_order/dm_4_2
    "ofdmim424": dict(variant="ofdm-im", n=4, n_active=2, m=4),  # rate_mc_low_order/ofdm_im_4_2_4
    "spm422": dict(variant="spm", n=4, k=2, m=2, selection="alg1"),  # rate_mc_low_order/spm_4_2_2
}


@dataclass(frozen=True)
class GraphSpec:
    variant: str
    n: int
    k: int | None
    algorithms: tuple[str, ...]


# configs/select/<variant>_n<n>.cfg; all seven set budget=2000000, time_budget=120.
GRAPHS = {
    "ofspm3": GraphSpec("ofspm", 3, None, ("alg1", "alg2", "exact")),
    "ofspm4": GraphSpec("ofspm", 4, None, ("alg2", "exact")),
    "ofspm5": GraphSpec("ofspm", 5, None, ("alg2",)),
    "ofspm6": GraphSpec("ofspm", 6, None, ("alg2",)),
    "ospm4": GraphSpec("ospm", 4, 2, ("alg1", "alg2", "exact")),
    "ospm6": GraphSpec("ospm", 6, 2, ("alg2", "exact")),
    "ospm8": GraphSpec("ospm", 8, 2, ("alg2", "exact")),
}
SELECT_BUDGET = 2_000_000
SELECT_TIME_BUDGET = 120.0


def _grid(snr):
    return ",".join(f"{s:g}" for s in snr)


@dataclass(frozen=True)
class Ber:
    """`spmofdm ber`: simulate_ber, plus the bound column if with_bound."""

    key: str
    snr: tuple[float, ...]
    max_blocks: int
    with_bound: bool = False
    kind = "ber"

    @property
    def id(self):
        return f"ber/{self.key}/{_grid(self.snr)}"

    @property
    def n_ops(self):
        return len(self.snr) * (2 if self.with_bound else 1)


@dataclass(frozen=True)
class Rate:
    """`spmofdm rate-mc`: estimate_rate."""

    key: str
    snr: tuple[float, ...]
    draws: int
    kind = "rate"

    @property
    def id(self):
        return f"rate/{self.key}/{_grid(self.snr)}/draws={self.draws}"

    @property
    def n_ops(self):
        return len(self.snr)


@dataclass(frozen=True)
class Bound:
    """`spmofdm bound`: union_bound_ber at each SNR."""

    key: str
    snr: tuple[float, ...]
    kind = "bound"

    @property
    def id(self):
        return f"bound/{self.key}/{_grid(self.snr)}"

    @property
    def n_ops(self):
        return len(self.snr)


@dataclass(frozen=True)
class Select:
    """`spmofdm select` on a committed select config, graph built in set-up."""

    key: str
    kind = "select"

    @property
    def id(self):
        return f"select/{self.key}"

    @property
    def n_ops(self):
        return len(GRAPHS[self.key].algorithms)


@dataclass(frozen=True)
class Codebook:
    """`spmofdm codebook` after the scheme is built: distances and export."""

    key: str
    m: int
    kind = "codebook"

    @property
    def id(self):
        return f"codebook/{self.key}"

    @property
    def n_ops(self):
        return 1


PROBE_BER = Ber("mm22", (10.0, 20.0), 40_000_000)
PROBE_RATE = Rate("dm42", (10.0,), 512)
PROBE_BOUND = Bound("ofspm42", (10.0,))
PROBE_SELECT = (Select("ospm4"), Select("ofspm4"), Select("ofspm5"), Select("ospm8"))
PROBE_CODEBOOK = Codebook("ofspm42", 2)


@dataclass(frozen=True)
class Workload:
    """The timed job list, and the probe jobs that cover the paths the job
    list does not run. Probes run outside the job list's timer."""

    jobs: tuple
    probes: tuple

    @property
    def select_keys(self):
        return sorted({j.key for j in self.jobs + self.probes if j.kind == "select"})


WORKLOADS = {
    # BER Monte-Carlo from J=2 (RNG and bit-count floor) to J=8192
    # (exhaustive candidate search); ofspm42 carries its committed bound column.
    "ber_sweep": Workload(
        jobs=(
            Ber("ofdmbpsk", (30.0,), 40_000_000),
            PROBE_BER,
            Ber("ospm422", (10.0, 20.0), 10_000_000),
            Ber("ofspm42", (10.0, 20.0), 40_000_000, with_bound=True),
            Ber("ofspm44", (20.0,), 4_000_000),
        ),
        probes=(PROBE_RATE, *PROBE_SELECT, PROBE_CODEBOOK),
    ),
    # J^2 pair sums without detection: the rate estimator on the
    # rate_mc_low_order schemes (J <= 128) and the union bound up to J=4096.
    "rate_bound": Workload(
        jobs=(
            *(Rate(key, (0.0, 10.0, 20.0), 512)
              for key in ("ofdmbpsk", "mm22", "dm42", "ofdmim424", "ospm422", "spm422")),
            Bound("ofspm42", (0.0, 10.0, 20.0)),
            Bound("mm44", (10.0,)),
        ),
        probes=(PROBE_BER, *PROBE_SELECT, PROBE_CODEBOOK),
    ),
    # Graph search and distances: the seven select configs (ofspm6 has
    # L=4683, so its O(L^3) eigenvalue bound dominates) and the O(J^2)
    # codebook_dmin on J=8192.
    "select_codebook": Workload(
        jobs=(*(Select(g) for g in GRAPHS), Codebook("ofspm44", 4)),
        probes=(PROBE_BER, PROBE_RATE, PROBE_BOUND),
    ),
}

# Inputs of the warm-up calls, built in every workload's set-up. ofspm5
# (L=541) is large enough for the BLAS to start its threads.
WARMUP_SCHEME = "mm22"
WARMUP_GRAPHS = ("ospm4", "ofspm5")


@dataclass
class Context:
    """Inputs of the timed phase and the settings every job reads."""

    rec: object
    seed: int
    workers: int
    schemes: dict
    graphs: dict


def setup(workload, seed, workers, rec):
    """Build every input of the workload's jobs, then make one warm-up call
    per code path so first-call costs land here and not in the passes."""
    wl = WORKLOADS[workload]
    scheme_keys = {j.key for j in wl.jobs + wl.probes if j.kind != "select"} | {WARMUP_SCHEME}
    schemes = {}
    for key in sorted(scheme_keys):
        with rec.span(f"codebook.build_scheme.{key}"):
            scheme = codebook.build_scheme(**SCHEMES[key])
        rec.add(f"codebook.codewords.{key}", 1 << scheme.f)
        schemes[key] = scheme
    graphs = {}
    for key in sorted(set(wl.select_keys) | set(WARMUP_GRAPHS)):
        spec = GRAPHS[key]
        with rec.span(f"codebook.enumerate.{key}"):
            book = codebook.build_index_codebook(spec.variant, spec.n, k=spec.k)
        with rec.span(f"selection.graph.{key}"):
            graphs[key] = selection.build_hamming_graph(book.patterns)
        rec.add(f"selection.graph.{key}.order", graphs[key].order)
    ctx = Context(rec, seed, workers, schemes, graphs)
    with rec.span("bench.warmup"):
        _warm_up(ctx)
    return ctx


def _warm_up(ctx):
    scheme = ctx.schemes[WARMUP_SCHEME]
    cfg = simulation.SimConfig(scheme=scheme, snr_db_grid=(10.0,), min_bit_errors=1,
                               master_seed=ctx.seed)
    simulation.simulate_ber(cfg, workers=ctx.workers)
    simulation.estimate_rate(cfg, draws=256)
    analysis.union_bound_ber(scheme.codewords, 10.0)
    codebook.codebook_dmin(scheme.codewords)
    codebook.export_codebook(scheme.book)
    _solve(ctx.graphs["ospm4"], "alg1")
    _solve(ctx.graphs["ospm4"], "alg2")
    _solve(ctx.graphs["ospm4"], "exact")
    selection.clique_upper_bound(ctx.graphs["ofspm5"])


def _solve(graph, alg):
    if alg == "alg1":
        return selection.brute_force_k_clique(graph, budget=SELECT_BUDGET)
    if alg == "alg2":
        return selection.vertex_exclusion(graph)
    return selection.exact_max_clique(graph, time_budget=SELECT_TIME_BUDGET)


def _bound_point(ctx, key, snr_db):
    name = f"analysis.bound.{key}"
    with ctx.rec.span(name):
        res = analysis.union_bound_ber(ctx.schemes[key].codewords, 10.0 ** (snr_db / 10.0))
    ctx.rec.add(name + ".points", 1)
    ctx.rec.add(name + ".pairs", res.pairs)
    return f"bound/{key}@{snr_db:g}", "bound", {"ber_bound": res.ber_bound}


def run_ber(ctx, job):
    scheme = ctx.schemes[job.key]
    cfg = simulation.SimConfig(
        scheme=scheme, snr_db_grid=job.snr, min_bit_errors=MIN_ERRORS,
        max_blocks=job.max_blocks, master_seed=ctx.seed,
    )
    name = f"simulation.ber.{job.key}"
    with ctx.rec.span(name):
        report = simulation.simulate_ber(cfg, workers=ctx.workers)
    ops = []
    for p in report.points:
        ctx.rec.add(name + ".blocks", p.blocks)
        ops.append((f"{job.id}@{p.snr_db:g}", "ber", {
            "key": job.key, "snr_db": p.snr_db, "blocks": p.blocks,
            "bits_sent": p.bits_sent, "bit_errors": p.bit_errors,
            "index_bit_errors": p.index_bit_errors, "mod_bit_errors": p.mod_bit_errors,
            "converged": p.converged,
        }))
    if job.with_bound:
        ops += [_bound_point(ctx, job.key, p.snr_db) for p in report.points]
    return ops


def run_rate(ctx, job):
    scheme = ctx.schemes[job.key]
    cfg = simulation.SimConfig(scheme=scheme, snr_db_grid=job.snr, master_seed=ctx.seed)
    name = f"simulation.rate.{job.key}"
    with ctx.rec.span(name):
        report = simulation.estimate_rate(cfg, draws=job.draws)
    J = 1 << scheme.f
    ops = []
    for p in report.points:
        ctx.rec.add(name + ".draws", p.draws)
        ctx.rec.add(name + ".draw_pairs", p.draws * J * J)
        ops.append((f"{job.id}@{p.snr_db:g}", "rate", {
            "rate": p.rate, "stderr": p.stderr, "draws": p.draws,
            "max_rate": scheme.f / scheme.n,
        }))
    return ops


def run_bound(ctx, job):
    return [_bound_point(ctx, job.key, snr) for snr in job.snr]


def run_select(ctx, job):
    graph = ctx.graphs[job.key]
    ops = []
    for alg in GRAPHS[job.key].algorithms:
        name = f"selection.{alg}.{job.key}"
        with ctx.rec.span(name):
            res = _solve(graph, alg)
        ctx.rec.add(name + ".reported_s", res.elapsed_s)
        with ctx.rec.span(f"selection.is_clique.{job.key}"):
            clique = selection.is_clique(graph, res.indices)
        ops.append((f"{job.id}/{alg}", "select", {
            "size": res.size, "bound": res.bound, "is_clique": clique,
            "settled": res.conclusive and res.proven_optimal is not False,
        }))
    return ops


def run_codebook(ctx, job):
    scheme = ctx.schemes[job.key]
    with ctx.rec.span(f"codebook.dmin.{job.key}"):
        dmin = codebook.codebook_dmin(scheme.codewords)
    ctx.rec.add(f"codebook.dmin.{job.key}.codewords", 1 << scheme.f)
    with ctx.rec.span(f"codebook.export.{job.key}"):
        text = codebook.export_codebook(scheme.book, m=job.m)
    return [(job.id, "codebook", {
        "dmin": list(dmin),
        "export_sha256": hashlib.sha256(text.encode()).hexdigest(),
    })]


RUNNERS = {
    "ber": run_ber,
    "rate": run_rate,
    "bound": run_bound,
    "select": run_select,
    "codebook": run_codebook,
}


def standalone_bounds(ctx, workload):
    """One clique_upper_bound call per graph the workload selects on."""
    for key in WORKLOADS[workload].select_keys:
        with ctx.rec.span(f"selection.bound.{key}"):
            selection.clique_upper_bound(ctx.graphs[key])
