"""spmofdm benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload ber_sweep --seed 1905 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Set-up builds every input and warms every code path; the timed phase then
runs the workload's job list back to back (a closed loop with one client),
each job followed by one run of the probe jobs outside the pass timer,
until the next pass would overrun --seconds. The end-to-end metrics are
whole-run figures: work and time summed over every pass (or over every
probe run, for the paths the job list does not cover), so a slow phase of
a shared host weighs by its length, not by whether it holds half the
samples. setup_s is the median of set-ups spread over the run.
The last line of stdout is the result object; the line before it holds
the provenance and the per-key details.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes, reports the per-layer metrics (sums over keys, layer
self times, tracing overhead), and writes every span to
perfbench/out/trace-<workload>-<seed>.json.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (simulate_ber workers, BLAS threads) per workload; their product must
# not exceed nproc. ber_sweep splits batches over threads with a
# single-threaded BLAS each; the other paths have no workers and
# select_codebook's eigvalsh is the one call that gains from BLAS threads.
PINNING = {
    "ber_sweep": (2, 1),
    "rate_bound": (1, 1),
    "select_codebook": (1, 2),
}
SETUP_RUNS = 7  # set-ups per run (this process plus fresh children); setup_s is their median
LAYERS = ("bench", "codebook", "selection", "analysis", "simulation")
ALGORITHMS = ("alg1", "alg2", "exact")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ber_blocks_per_s": "blocks/s",
    "rate_draws_per_s": "draws/s",
    "bound_s": "s",
    "select_s": "s",
    "codebook_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(PINNING))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def pin_threads(workload):
    nproc = len(os.sched_getaffinity(0))
    workers, blas = PINNING[workload]
    workers = min(workers, nproc)
    blas = max(1, min(blas, nproc // workers))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas)
    return nproc, workers, blas


def total(t, prefix, suffix=""):
    """Sum of t[prefix + key + suffix] over keys without dots."""
    out = 0
    for name, v in t.items():
        if name.startswith(prefix) and name.endswith(suffix):
            key = name[len(prefix):len(name) - len(suffix)]
            if key and "." not in key:
                out += v
    return out


def path_metrics(t, runs=1):
    """End-to-end path metrics of an accumulator summed over `runs` runs of
    the same jobs, for the paths it ran: throughputs are work over time,
    times are per run."""
    out = {}
    ber_s, rate_s = total(t, "simulation.ber.", ".s"), total(t, "simulation.rate.", ".s")
    if ber_s:
        out["ber_blocks_per_s"] = total(t, "simulation.ber.", ".blocks") / ber_s
    if rate_s:
        out["rate_draws_per_s"] = total(t, "simulation.rate.", ".draws") / rate_s
    sums = {
        "bound_s": total(t, "analysis.bound.", ".s"),
        "select_s": sum(total(t, f"selection.{a}.", ".s") for a in ALGORITHMS),
        "codebook_s": total(t, "codebook.dmin.", ".s") + total(t, "codebook.export.", ".s"),
    }
    out.update((k, v / runs) for k, v in sums.items() if v)
    return out


def layer_metrics(t):
    """Per-layer sums of one accumulator, for the paths it ran; each rate
    or per-unit time sits next to its count."""
    out = {}
    ber_s, blocks = total(t, "simulation.ber.", ".s"), total(t, "simulation.ber.", ".blocks")
    if ber_s:
        out.update({
            "simulation.ber.s": ber_s,
            "simulation.ber.blocks": blocks,
            "simulation.ber.ns_per_block": 1e9 * ber_s / blocks,
        })
    rate_s = total(t, "simulation.rate.", ".s")
    if rate_s:
        out.update({
            "simulation.rate.s": rate_s,
            "simulation.rate.draws": total(t, "simulation.rate.", ".draws"),
            "simulation.rate.ns_per_draw_pair":
                1e9 * rate_s / total(t, "simulation.rate.", ".draw_pairs"),
        })
    bound_s, points = total(t, "analysis.bound.", ".s"), total(t, "analysis.bound.", ".points")
    if bound_s:
        out.update({
            "analysis.bound.s": bound_s,
            "analysis.bound.points": points,
            "analysis.bound.pairs": total(t, "analysis.bound.", ".pairs"),
            "analysis.bound.s_per_point": bound_s / points,
        })
    for a in ALGORITHMS:
        wall = total(t, f"selection.{a}.", ".s")
        if wall:
            out[f"selection.{a}.wall_s"] = wall
            out[f"selection.{a}.reported_s"] = total(t, f"selection.{a}.", ".reported_s")
    dmin_s = total(t, "codebook.dmin.", ".s")
    if dmin_s:
        out["codebook.dmin.s"] = dmin_s
        out["codebook.dmin.codewords"] = total(t, "codebook.dmin.", ".codewords")
    return out


def setup_metrics(setup, bounds):
    return {
        "selection.graph.s": total(setup, "selection.graph.", ".s"),
        "selection.graph.order": total(setup, "selection.graph.", ".order"),
        "selection.bound.s": total(bounds, "selection.bound.", ".s"),
        "codebook.enumerate.s": total(setup, "codebook.enumerate.", ".s"),
        "codebook.build_scheme.s": total(setup, "codebook.build_scheme.", ".s"),
        "codebook.codewords": total(setup, "codebook.codewords."),
    }


def merged_medians(rows, fallback):
    """Median of each metric over rows; a metric no row has is taken from
    the fallback rows instead (the probes, for paths the job list skips)."""
    out = {}
    for row_set in (rows, fallback):
        for k in sorted({k for r in row_set for k in r} - out.keys()):
            out[k] = statistics.median(r[k] for r in row_set if k in r)
    return out


def summed(rows):
    out = {}
    for r in rows:
        for k, v in r.items():
            out[k] = out.get(k, 0) + v
    return out


def whole_run_path_metrics(rows, fallback):
    """Path metrics over the whole run: work summed over every pass, over
    the time summed over every pass. A path no pass ran is taken from the
    probe runs instead."""
    out = {}
    for row_set in (rows, fallback):
        for k, v in path_metrics(summed(row_set), len(row_set)).items():
            out.setdefault(k, v)
    return out


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last.startswith("ns_per_"):
        return "ns"
    if last == "s" or last.endswith("_s") or last.startswith("s_per_"):
        return "s"
    return "count"


def per_key(t):
    """Every accumulated value of one pass, plus the per-key ratios."""
    out = dict(t)
    for name, v in t.items():
        if name.startswith(tuple(f"selection.{a}." for a in ALGORITHMS)) and name.endswith(".s"):
            out[name[:-2] + ".wall_s"] = out.pop(name)
        for count, ratio, scale in ((".blocks", ".ns_per_block", 1e9),
                                    (".draw_pairs", ".ns_per_draw_pair", 1e9),
                                    (".points", ".s_per_point", 1.0)):
            if name.endswith(count):
                base = name[: -len(count)]
                out[base + ratio] = scale * t[base + ".s"] / v
    return out


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, nproc, workers, blas):
    import platform

    import numpy
    import scipy

    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas_info = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info.get("name"),
        "blas_version": blas_info.get("version"), "blas_threads": blas,
        "workers": workers, "git_commit": git_commit(), "src_sha256": src_digest(),
    }


def child_setup_s(args):
    """Set-up time of a fresh process running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_jobs(ctx, jobs, workloads, span):
    """Run jobs back to back under one span; return their ops."""
    ops = []
    with ctx.rec.span(span):
        for job in jobs:
            with ctx.rec.span(f"bench.{job.kind}.{job.key}"):
                try:
                    ops += workloads.RUNNERS[job.kind](ctx, job)
                except Exception:  # a failing job is a failed op, not a crashed run
                    traceback.print_exc()
                    ops += [(f"{job.id}#{i}", "error", None) for i in range(job.n_ops)]
    return ops


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spmofdm" / "__init__.py").is_file():
        print(f"perfbench: no spmofdm package under {SRC}", file=sys.stderr)
        return 2
    nproc, workers, blas = pin_threads(args.workload)
    sys.path.insert(0, str(SRC))

    from tracing import Recorder, layer_self_times, spans_json

    rec = Recorder()
    rec.tracing = bool(args.trace)
    t0 = time.perf_counter()
    import workloads  # imports spmofdm, numpy and scipy: part of set-up

    ctx = workloads.setup(args.workload, args.seed, workers, rec)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_totals = rec.collect()
    setup_samples = [setup_s]

    from checks import Checker

    with open(HERE / "reference.json") as fh:
        checker = Checker(json.load(fh), args.seed)
    wl = workloads.WORKLOADS[args.workload]
    # tracing -> one (pass accumulator, probe accumulators, first span) per iteration
    iters = {False: [], True: []}
    durations = []
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(iters[True]) < len(iters[False])
        rec.tracing = tracing
        it_start, first_span = time.perf_counter(), len(rec.spans)
        pass_totals, probe_totals = {}, []
        # Probes run between the jobs, so their samples spread over the pass.
        for job in wl.jobs:
            checker.check(run_jobs(ctx, [job], workloads, "bench.pass"))
            for name, v in rec.collect().items():
                pass_totals[name] = pass_totals.get(name, 0) + v
            checker.check(run_jobs(ctx, wl.probes, workloads, "bench.probes"))
            probe_totals.append(rec.collect())
        iters[tracing].append((pass_totals, probe_totals, first_span))
        # The set-ups of fresh processes are spread over the run, between
        # passes, so setup_s sees the same drift of the host as the passes.
        children = len(setup_samples) - 1
        if (not args.trace and children < SETUP_RUNS - 1
                and time.perf_counter() - start >= children * args.seconds / (SETUP_RUNS - 1)):
            setup_samples.append(child_setup_s(args))
        durations.append(time.perf_counter() - it_start)
        enough = iters[False] and (iters[True] or not args.trace)
        if enough and time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    while not args.trace and len(setup_samples) < SETUP_RUNS:
        setup_samples.append(child_setup_s(args))

    def pass_wall(it):
        return it[0]["bench.pass.s"]

    detail = {"setup_samples_s": setup_samples,
              "pass_wall_s": {("traced" if k else "untraced"): [pass_wall(it) for it in v]
                              for k, v in iters.items()},
              "problems": checker.problems[:50]}
    prov = provenance(args, nproc, workers, blas)
    if args.trace:
        rec.tracing = True
        bounds_start = len(rec.spans)
        workloads.standalone_bounds(ctx, args.workload)
        bound_totals = rec.collect()
        traced = iters[True]
        values = merged_medians([layer_metrics(p) for p, _, _ in traced],
                                [layer_metrics(t) for _, ps, _ in traced for t in ps])
        values.update(setup_metrics(setup_totals, bound_totals))
        ends = [first for _, _, first in traced[1:]] + [bounds_start]
        self_rows = []
        for (_, _, first), end in zip(traced, ends):
            selfs = layer_self_times(rec.spans, first, end)
            self_rows.append({f"self.{layer}.s": selfs.get(layer, 0.0) for layer in LAYERS})
        values.update(medians(self_rows))
        traced_wall = statistics.median(pass_wall(it) for it in traced)
        untraced_wall = statistics.median(pass_wall(it) for it in iters[False])
        values.update({
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": len(rec.spans),
        })
        metrics = {k: {"value": values[k], "unit": unit_of(k)} for k in sorted(values)}
        detail["per_key"] = {
            **per_key(setup_totals), **per_key(bound_totals),
            **merged_medians([per_key(p) for p, _, _ in traced],
                             [per_key(t) for _, ps, _ in traced for t in ps]),
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump({"provenance": prov, "detail": detail, "spans": spans_json(rec.spans)}, fh)
    else:
        untraced = iters[False]
        probe_runs = [t for _, ps, _ in untraced for t in ps]
        values = whole_run_path_metrics([p for p, _, _ in untraced], probe_runs)
        values["wall_s"] = statistics.mean(pass_wall(it) for it in untraced)
        detail["samples"] = {"passes": len(untraced), "probe_runs": len(probe_runs)}
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for line in checker.problems[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
