"""Batch experiment runner.

Subcommands: codebook, select, ber, bound, rate, rate-mc. Each takes a
plain key=value config file (one pair per line, # comments) and writes CSV
with a short provenance header (version, config hash, seed), so re-running
a config reproduces the output byte for byte. The SPM_SEED environment
variable overrides the config seed. A set key that names a library
parameter is passed on as is; an unset key leaves the library default.

Exit codes: 0 success, 2 config error, 3 Monte-Carlo non-convergence,
4 search budget exhausted.
"""

import argparse
import errno
import hashlib
import inspect
import math
import os
import sys
import time

from . import __version__
from . import analysis, codebook, selection, simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_BUDGET = 4

# Most points an SNR grid may have; each is a full BER, bound or rate run.
MAX_SNR_POINTS = 10_000
# Largest |snr_db|: 10^(snr_db/10) and N0 = 10^(-snr_db/10) stay finite.
MAX_SNR_DB = 3000.0


class ConfigError(Exception):
    pass


def _parse_bool(s):
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_k(s):
    return "auto" if s.lower() == "auto" else int(s)


_KEYS = {
    "scheme": str,  # free-text label
    "variant": str,
    "variants": str,  # comma list, rate command only
    "n": int,
    "n_start": int,
    "n_stop": int,
    "k": _parse_k,
    "m": int,
    "d": int,
    "n_active": int,
    "constellation": str,
    "selection": str,
    "pad_to": int,
    "budget": int,
    "time_budget": float,
    "algorithms": str,
    "graph": str,
    "snr_start": float,
    "snr_stop": float,
    "snr_step": float,
    "seed": int,
    "min_errors": int,
    "max_blocks": int,
    "draws": int,
    "with_bound": _parse_bool,
    "asymptotes": _parse_bool,
    "output": str,
}

_DEFAULTS = {  # what the CLI itself decides; the library owns every other default
    "seed": simulation.SimConfig.master_seed,  # for the CSVs' "# seed=" line
    "algorithms": "alg1,alg2,exact",
    "with_bound": False,
    "asymptotes": False,
}

# config key -> library parameter, where the two names differ
_PARAMS = {"scheme": "name", "min_errors": "min_bit_errors", "seed": "master_seed"}


def load_config(path):
    """Parse a key=value config file; unknown keys and bad values are errors
    reported with their line number."""
    cfg = dict(_DEFAULTS)
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = text.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = _KEYS[key](val)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    cfg["_hash"] = hashlib.sha256(raw.encode()).hexdigest()[:12]
    if "SPM_SEED" in os.environ:
        cfg["seed"] = int(os.environ["SPM_SEED"])
    return cfg


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")


def _call(fn, cfg, *args, **fixed):
    """fn(*args, **fixed), plus every set config key that names one of fn's
    other parameters."""
    params = list(inspect.signature(fn).parameters)[len(args):]
    named = {_PARAMS.get(key, key): val for key, val in cfg.items()}
    return fn(*args, **{**{p: named[p] for p in params if p in named}, **fixed})


def _scheme_from_config(cfg):
    _require(cfg, "variant", "n")
    return _call(codebook.build_scheme, cfg)


def _snr_grid(cfg):
    _require(cfg, "snr_start", "snr_stop", "snr_step")
    start, stop, step = cfg["snr_start"], cfg["snr_stop"], cfg["snr_step"]
    if not (step > 0 and stop >= start):  # false for a nan too
        raise ConfigError("need snr_step > 0 and snr_stop >= snr_start")
    span = (stop - start) / step
    if not all(map(math.isfinite, (start, stop, step, span))):
        raise ConfigError("snr_start, snr_stop, snr_step and their point count must be finite")
    count = int(math.floor(span + 1e-9)) + 1
    if count > MAX_SNR_POINTS:
        raise ConfigError(f"the SNR grid has {count} points, above the limit {MAX_SNR_POINTS}")
    grid = tuple(start + i * step for i in range(count))
    for snr in (grid[0], grid[-1]):  # the grid is increasing
        if abs(snr) > MAX_SNR_DB:
            raise ConfigError(f"SNR point {snr:g} dB is outside the limit of +-{MAX_SNR_DB:g} dB")
    return grid


def _out_path(cfg, args, suffix):
    """The command's output path, checked (_check_writable) before it does
    any work."""
    if args.out:
        path = args.out
    elif "output" in cfg:
        path = cfg["output"]
    else:
        path = f"spmofdm_{suffix}.csv"
    _check_writable(path)
    return path


def _check_writable(path):
    """Raise the config error that opening path for writing would raise,
    without creating or truncating anything."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _write(path, cfg, body_lines, verbose):
    header = [
        f"# spmofdm v{__version__}",
        f"# config_hash={cfg['_hash']}",
        f"# seed={cfg['seed']}",
    ]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(header + list(body_lines)) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None
    if verbose:
        print(f"wrote {path}", file=sys.stderr)


_RATE_HEADER = "variant,N,K,M,f1,f2,rate,raw_rate"


def _rate_row(fig):
    K = fig.k if fig.variant in ("spm", "ospm", "mm") else "-"
    return f"{fig.variant},{fig.n},{K},{fig.m},{fig.f1},{fig.f2},{fig.rate:.9g},{fig.raw_rate:.9g}"


def cmd_codebook(cfg, args):
    out = _out_path(cfg, args, "codebook")
    _check_writable(out + ".rates.csv")  # both files or neither
    scheme = _scheme_from_config(cfg)
    dmin, dmin_rl, min_rank = codebook.codebook_dmin(scheme)
    m, usable = scheme.family.M, len(scheme.book.patterns)
    figures = _call(codebook.rate, cfg, scheme.book.variant, scheme.n, m=m,
                    usable_patterns=usable)
    _write(out, cfg, codebook.export_codebook(scheme.book, m=m).rstrip("\n").splitlines(),
           args.verbose)
    _write(out + ".rates.csv", cfg, [_RATE_HEADER, _rate_row(figures)], args.verbose)
    print(
        f"{scheme.name}: patterns={usable} f1={scheme.f1} f2={scheme.f2} "
        f"rate={scheme.rate_bits_per_subcarrier:.9g} d_min={dmin:.6g} "
        f"d_min_rank_limited={dmin_rl:.6g} min_rank={min_rank}"
    )
    return EXIT_OK


def _select_row(res):
    idx = " ".join(str(i) for i in res.indices)
    return (f"{res.algorithm},{res.size},{res.bound},{res.elapsed_s * 1e3:.9g},"
            f"{1 if res.settled else 0},{idx}")


def cmd_select(cfg, args):
    out = _out_path(cfg, args, "select")
    algos = [a.strip() for a in cfg["algorithms"].split(",") if a.strip()]
    if not algos:
        raise ConfigError("algorithms names no solver")
    solvers = [(algo, _call(selection.solver, cfg, algo)) for algo in algos]
    if "graph" in cfg:  # user-supplied edge list instead of a variant book
        try:
            with open(cfg["graph"], "rb") as fh:
                edges = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read graph {cfg['graph']}: {e}") from None
        graph = selection.graph_from_edge_list(edges.decode())
        # the provenance hash covers the edge list, not just its path
        cfg["_hash"] = hashlib.sha256(cfg["_hash"].encode() + edges).hexdigest()[:12]
    else:
        _require(cfg, "variant", "n")
        book = _call(codebook.build_index_codebook, cfg)
        graph = selection.build_hamming_graph(book.patterns)
    rows = ["algorithm,size,bound,elapsed_ms,settled,indices"]
    status = EXIT_OK
    # the O(L^3) factorisation for the bound is its own stage
    t0 = time.perf_counter()
    bound = selection.clique_upper_bound(graph)
    print(f"eigenvalue bound: {bound} elapsed={(time.perf_counter() - t0) * 1e3:.3f} ms")
    for algo, solve in solvers:
        res = solve(graph)
        if not res.settled:
            status = EXIT_BUDGET
        if res.indices and not selection.is_clique(graph, res.indices):
            raise AssertionError(f"{algo} returned a non-clique")
        rows.append(_select_row(res))
        print(
            f"{algo}: size={res.size} bound={res.bound} "
            f"elapsed={res.elapsed_s * 1e3:.3f} ms"
            + ("" if res.settled else " (budget exhausted)")
        )
    _write(out, cfg, rows, args.verbose)
    return status


def _ber_row(p):
    return (f"{p.snr_db:.9g},{p.bits_sent},{p.bit_errors},{p.ber:.9g},"
            f"{p.index_ber:.9g},{p.mod_ber:.9g},{1 if p.converged else 0}")


def cmd_ber(cfg, args):
    out = _out_path(cfg, args, "ber")
    scheme = _scheme_from_config(cfg)
    sim = _call(simulation.SimConfig, cfg, scheme=scheme, snr_db_grid=_snr_grid(cfg))
    grid = sim.snr_db_grid
    # the bound before the simulation, so that a table it refuses costs no run
    bounds = ([f",{analysis.union_bound_ber(scheme, 10.0 ** (snr / 10.0)).ber_bound:.9g}"
               for snr in grid] if cfg["with_bound"] else [""] * len(grid))
    report = simulation.simulate_ber(sim, workers=args.workers)
    rows = ["snr_db,bits,errors,ber,index_ber,mod_ber,converged"
            + (",bound_ber" if cfg["with_bound"] else "")]
    rows += [_ber_row(p) + b for p, b in zip(report.points, bounds)]
    _write(out, cfg, rows, args.verbose)
    for p in report.points:
        print(f"{scheme.name} @ {p.snr_db:g} dB: ber={p.ber:.3e} "
              f"({p.bit_errors} errors / {p.blocks} blocks)"
              + ("" if p.converged else " [not converged]"))
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def cmd_bound(cfg, args):
    out = _out_path(cfg, args, "bound")
    scheme = _scheme_from_config(cfg)
    rows = ["snr_db,bound_ber,pairs_enumerated,exact_flag"]
    for snr in _snr_grid(cfg):
        res = analysis.union_bound_ber(scheme, 10.0 ** (snr / 10.0))
        # the bound is exact over all J(J - 1) ordered pairs (none is
        # sampled), so exact_flag is always 1
        rows.append(f"{snr:.9g},{res.ber_bound:.9g},{res.pairs},1")
    _write(out, cfg, rows, args.verbose)
    return EXIT_OK


def cmd_rate(cfg, args):
    out = _out_path(cfg, args, "rate")
    if "variants" in cfg:
        variants = [v.strip() for v in cfg["variants"].split(",") if v.strip()]
    else:
        _require(cfg, "variant")
        variants = [cfg["variant"]]
    if "n_start" in cfg or "n_stop" in cfg:
        _require(cfg, "n_start", "n_stop")
        n_range = range(cfg["n_start"], cfg["n_stop"] + 1)
    else:
        _require(cfg, "n")
        n_range = [cfg["n"]]
    with_asym = cfg["asymptotes"]
    rows = [_RATE_HEADER + (",asymptote" if with_asym else "")]
    rejected = None
    for v in variants:
        v = codebook.canonical_variant(v)  # an unknown name is an error, not a skip
        for n in n_range:
            try:
                fig = _call(codebook.rate, cfg, v, n)
            except codebook._Refused as e:
                raise ConfigError(str(e)) from None
            except ValueError as e:  # e.g. k > n early in a sweep
                rejected = rejected or e
                continue
            row = _rate_row(fig)
            if with_asym:
                row += "," + _asymptote(fig, cfg.get("k") not in (None, "auto"))
            rows.append(row)
    if len(rows) == 1:  # every row rejected, or an empty variant or n range
        raise rejected or ConfigError("no (variant, n) pair to tabulate")
    _write(out, cfg, rows, args.verbose)
    return EXIT_OK


def _asymptote(fig, fixed_k):
    """The fixed-k limit where k is configured and the variant has one,
    else the max-rate limit where defined, else blank."""
    limits = [(codebook.asymptotic_rate, fig.k)] if fixed_k else []
    for limit, size in limits + [(codebook.asymptotic_max_rate, fig.n)]:
        try:
            return f"{limit(fig.variant, size, fig.m):.9g}"
        except ValueError:
            pass
    return ""


def cmd_rate_mc(cfg, args):
    out = _out_path(cfg, args, "rate_mc")
    scheme = _scheme_from_config(cfg)
    sim = _call(simulation.SimConfig, cfg, scheme=scheme, snr_db_grid=_snr_grid(cfg))
    report = _call(simulation.estimate_rate, cfg, sim)
    rows = ["snr_db,rate,stderr,draws"]
    rows += [f"{p.snr_db:.9g},{p.rate:.9g},{p.stderr:.9g},{p.draws}" for p in report.points]
    _write(out, cfg, rows, args.verbose)
    for p in report.points:
        print(f"{scheme.name} @ {p.snr_db:g} dB: rate={p.rate:.4f} +- {p.stderr:.4f}")
    return EXIT_OK


_COMMANDS = {
    "codebook": cmd_codebook,
    "select": cmd_select,
    "ber": cmd_ber,
    "bound": cmd_bound,
    "rate": cmd_rate,
    "rate-mc": cmd_rate_mc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spmofdm", description="Set-partition modulation experiment runner"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", help="output path (overrides config 'output')")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except selection.BudgetExhausted as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
