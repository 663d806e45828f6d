"""End-to-end CLI runs over temp config files."""

import dataclasses
import glob
import inspect
import math
import os
import time
import warnings

import pytest

from spmofdm import codebook, selection, simulation
from spmofdm.codebook import _variant
from spmofdm.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NONCONVERGED,
    EXIT_OK,
    MAX_SNR_POINTS,
    ConfigError,
    _COMMANDS,
    _scheme_from_config,
    _snr_grid,
    load_config,
    main,
)

from bound_oracle import union_bound_ber_pairs


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
COMMITTED_CONFIGS = sorted(
    os.path.relpath(p, CONFIG_DIR)
    for p in glob.glob(os.path.join(CONFIG_DIR, "**", "*.cfg"), recursive=True)
)


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(command, cfg_path, out_path, *extra):
    return main([command, "--config", cfg_path, "--out", str(out_path), *extra])


def without_hash(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("# config_hash=")]


class TestConfigParsing:
    def test_unknown_key_reports_line(self, tmp_path):
        p = write_cfg(tmp_path, "bad.cfg", "variant=spm\nnope=1\n")
        with pytest.raises(Exception) as err:
            load_config(p)
        assert "bad.cfg:2" in str(err.value)
        assert "nope" in str(err.value)

    def test_bad_value_reports_line(self, tmp_path):
        p = write_cfg(tmp_path, "bad.cfg", "# comment\nn=abc\n")
        with pytest.raises(Exception) as err:
            load_config(p)
        assert "bad.cfg:2" in str(err.value)

    def test_comments_and_defaults(self, tmp_path):
        p = write_cfg(tmp_path, "ok.cfg", "variant=spm # trailing\nn=4\nk=2\n")
        cfg = load_config(p)
        assert cfg["variant"] == "spm" and cfg["n"] == 4
        assert cfg["seed"] == 1905

    def test_env_seed_override(self, tmp_path, monkeypatch):
        p = write_cfg(tmp_path, "ok.cfg", "variant=spm\nn=4\nk=2\nseed=7\n")
        monkeypatch.setenv("SPM_SEED", "99")
        assert load_config(p)["seed"] == 99

    def test_config_error_exit_code(self, tmp_path):
        p = write_cfg(tmp_path, "bad.cfg", "wat=1\n")
        assert main(["rate", "--config", p]) == EXIT_CONFIG


# every key that names a parameter of a library callable the CLI calls
_ALL_KEYS = (
    "scheme=probe\nvariant=ospm\nn=4\nk=2\nm=2\nd=1\nn_active=2\n"
    "constellation=psk\nselection=alg1\npad_to=8\nbudget=100000\ntime_budget=30\n"
    "algorithms=alg2\nsnr_start=40\nsnr_stop=40\nsnr_step=1\n"
    "min_errors=10\nmax_blocks=4096\ndraws=64\nseed=3\n"
)


class TestForwarding:
    @pytest.mark.parametrize("module,name,command", [
        (codebook, "build_scheme", "rate-mc"),
        (simulation, "SimConfig", "rate-mc"),
        (simulation, "estimate_rate", "rate-mc"),
        (selection, "solver", "select"),
        (codebook, "build_index_codebook", "select"),
        (codebook, "rate", "codebook"),
    ])
    def test_every_parameter_forwarded(self, tmp_path, monkeypatch, module, name, command):
        # with every config key set, the library callable receives every one
        # of its parameters: none is left unreachable from configs
        real = getattr(module, name)
        sig = inspect.signature(real)
        seen = []

        def spy(*args, **kwargs):
            seen.append(set(sig.bind(*args, **kwargs).arguments))
            return real(*args, **kwargs)

        spy.__signature__ = sig
        monkeypatch.setattr(module, name, spy)
        p = write_cfg(tmp_path, "all.cfg", _ALL_KEYS)
        assert run(command, p, tmp_path / "out.csv") == EXIT_OK
        assert seen and all(s == set(sig.parameters) for s in seen), seen

    @pytest.mark.parametrize("command", ["codebook", "ber", "rate-mc"])
    def test_omitted_keys_take_library_defaults(self, tmp_path, capsys, command):
        base = "variant=ospm\nn=4\nk=2\nsnr_start=10\nsnr_stop=10\nsnr_step=1\n"
        spelled = ("m=2\nconstellation=psk\nselection=none\n"
                   "min_errors=200\nmax_blocks=10000000\ndraws=4096\n")
        outs = []
        for i, text in enumerate((base, base + spelled)):
            out = tmp_path / f"{i}.csv"
            assert run(command, write_cfg(tmp_path, f"{i}.cfg", text), out) == EXIT_OK
            rates = tmp_path / f"{i}.csv.rates.csv"
            outs.append((without_hash(out), rates.exists() and without_hash(rates),
                         capsys.readouterr().out))
        assert outs[0] == outs[1]


class TestCodebookCommand:
    def test_ospm_selected(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "c.cfg",
                      "variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n")
        out = tmp_path / "book.txt"
        assert run("codebook", p, out) == EXIT_OK
        txt = out.read_text().splitlines()
        assert txt[1].startswith("# config_hash=")  # provenance header first
        body = [l for l in txt if not l.startswith("#")]
        assert body[0] == "ospm 4 2 2 8"
        assert len(body) == 9
        stdout = capsys.readouterr().out
        assert "rate=1.75" in stdout
        assert (tmp_path / "book.txt.rates.csv").exists()

    def test_mm_f1(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "c.cfg", "variant=mm\nn=4\nm=2\n")
        assert run("codebook", p, tmp_path / "mm.txt") == EXIT_OK
        assert "f1=4" in capsys.readouterr().out

    def test_ofspm_alg2_32(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "c.cfg", "variant=ofspm\nn=4\nm=2\nselection=alg2\n")
        assert run("codebook", p, tmp_path / "o.txt") == EXIT_OK
        assert "patterns=32" in capsys.readouterr().out

    def test_mm_k_auto(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "c.cfg", "variant=mm\nn=4\nk=auto\nm=2\n")
        assert run("codebook", p, tmp_path / "mm.txt") == EXIT_OK
        assert "f1=4" in capsys.readouterr().out

    def test_exact_timeout_exit(self, tmp_path):
        p = write_cfg(tmp_path, "c.cfg",
                      "variant=ofspm\nn=5\nselection=exact\ntime_budget=0.001\n")
        out = tmp_path / "o.txt"
        assert run("codebook", p, out) == EXIT_BUDGET
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_exact_non_finite_budget(self, tmp_path, capsys, budget):
        p = write_cfg(tmp_path, "c.cfg",
                      f"variant=ospm\nn=4\nk=2\nselection=exact\ntime_budget={budget}\n")
        out = tmp_path / "o.txt"
        assert run("codebook", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "time_budget must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("constellation", ["bogus", "qam"])
    def test_ofdm_im_rejects_constellation(self, tmp_path, capsys, constellation):
        p = write_cfg(tmp_path, "c.cfg", "variant=ofdm-im\nn=4\nn_active=2\nm=4\n"
                      f"constellation={constellation}\n")
        out = tmp_path / "o.txt"
        assert run("codebook", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert constellation in capsys.readouterr().err

    def test_constellation_checked_before_selection(self, tmp_path, capsys, monkeypatch):
        def fail(patterns):
            raise AssertionError("graph built before the constellation was checked")

        monkeypatch.setattr(selection, "build_hamming_graph", fail)
        p = write_cfg(tmp_path, "c.cfg",
                      "variant=ofspm\nn=6\nconstellation=bogus\nselection=alg2\n")
        out = tmp_path / "o.txt"
        assert run("codebook", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "unknown constellation 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "variant=fspm\nn=4\nm=4\n", "variant=ofspm\nn=3\n", "variant=mm\nn=3\n",
        "variant=ospm\nn=4\nk=2\n", "variant=dm\nn=4\n", "variant=ofdm-im\nn=4\nn_active=3\n",
    ])
    def test_rates_row_matches_rate_command(self, tmp_path, text):
        p = write_cfg(tmp_path, "c.cfg", text)
        assert run("codebook", p, tmp_path / "o.txt") == EXIT_OK
        assert run("rate", p, tmp_path / "r.csv") == EXIT_OK
        assert (tmp_path / "o.txt.rates.csv").read_text() == (tmp_path / "r.csv").read_text()


class TestSelectCommand:
    def test_all_algorithms(self, tmp_path):
        p = write_cfg(tmp_path, "s.cfg",
                      "variant=ospm\nn=4\nk=2\nalgorithms=alg1,alg2,exact\n")
        out = tmp_path / "sel.csv"
        assert run("select", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "algorithm,size,bound,elapsed_ms,settled,indices"
        sizes = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        assert sizes == {"alg1": 8, "alg2": 8, "exact": 8}

    def test_bound_stage_line(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "s.cfg", "variant=ospm\nn=4\nk=2\nalgorithms=alg2\n")
        assert run("select", p, tmp_path / "sel.csv") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("eigenvalue bound: 10 elapsed=")
        assert lines[1].startswith("alg2: size=8 bound=10 ")

    def test_budget_exhaustion_exit(self, tmp_path):
        p = write_cfg(tmp_path, "s.cfg",
                      "variant=ospm\nn=4\nk=2\nalgorithms=alg1\nbudget=3\n")
        assert run("select", p, tmp_path / "s.csv") == EXIT_BUDGET

    def test_alg1_time_budget_exit(self, tmp_path, capsys):
        # no subset budget: C(75, 32) subsets, stopped by the deadline alone
        p = write_cfg(tmp_path, "s.cfg",
                      "variant=ofspm\nn=4\nalgorithms=alg1\ntime_budget=0.5\n")
        out = tmp_path / "s.csv"
        t0 = time.perf_counter()
        assert run("select", p, out) == EXIT_BUDGET
        assert time.perf_counter() - t0 < 10
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [r[0] for r in rows[1:]] == ["alg1"] and rows[1][4] == "0"
        assert capsys.readouterr().out.splitlines()[1].endswith(" (budget exhausted)")

    def test_exact_timeout_exit(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "s.cfg",
                      "variant=ofspm\nn=5\nalgorithms=exact\ntime_budget=0.001\n")
        assert run("select", p, tmp_path / "s.csv") == EXIT_BUDGET
        assert capsys.readouterr().out.splitlines()[1].endswith(" (budget exhausted)")

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_exact_non_finite_budget(self, tmp_path, capsys, budget):
        p = write_cfg(tmp_path, "s.cfg",
                      f"variant=ospm\nn=4\nk=2\nalgorithms=exact\ntime_budget={budget}\n")
        out = tmp_path / "s.csv"
        assert run("select", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "time_budget must be finite" in capsys.readouterr().err

    def test_unsettled_row_marked(self, tmp_path):
        p = write_cfg(tmp_path, "s.cfg",
                      "variant=ofspm\nn=5\nalgorithms=alg2,exact\ntime_budget=0.2\n")
        out = tmp_path / "s.csv"
        assert run("select", p, out) == EXIT_BUDGET
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        settled = {r[0]: r[4] for r in rows[1:]}
        assert rows[0][4] == "settled"
        assert settled == {"alg2": "1", "exact": "0"}

    def test_no_algorithms(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "s.cfg", "variant=ospm\nn=4\nk=2\nalgorithms=,\n")
        out = tmp_path / "s.csv"
        assert run("select", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().out == ""  # no eigenvalue solve either

    def test_user_supplied_edge_list(self, tmp_path):
        # triangle 0-1-2 plus a pendant vertex
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n0 2\n1 2\n2 3\n")
        p = write_cfg(tmp_path, "s.cfg", f"graph={edges}\nalgorithms=alg2,exact\n")
        out = tmp_path / "sel.csv"
        assert run("select", p, out) == EXIT_OK
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert all(int(r.split(",")[1]) == 3 for r in rows[1:])

    def test_edge_list_vertex_limit(self, tmp_path, capsys):
        # one edge to vertex 10^8 would need an 8.88 PiB adjacency
        edges = tmp_path / "g.txt"
        edges.write_text("0 100000000\n")
        p = write_cfg(tmp_path, "s.cfg", f"graph={edges}\nalgorithms=alg2\n")
        out = tmp_path / "sel.csv"
        assert run("select", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "limit" in capsys.readouterr().err

    def test_edge_list_non_integer_vertex(self, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n1 x\n")
        p = write_cfg(tmp_path, "s.cfg", f"graph={edges}\nalgorithms=alg2\n")
        out = tmp_path / "sel.csv"
        assert run("select", p, out) == EXIT_CONFIG
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "edge list line 2: " in captured.err and "'1 x'" in captured.err
        assert "Traceback" not in captured.err

    def test_edge_list_in_config_hash(self, tmp_path):
        # same config text, two different edge lists behind the same path
        edges = tmp_path / "g.txt"
        p = write_cfg(tmp_path, "s.cfg", f"graph={edges}\nalgorithms=alg2\n")
        hashes = []
        for text in ("0 1\n0 2\n1 2\n", "0 1\n1 2\n"):
            edges.write_text(text)
            out = tmp_path / "sel.csv"
            assert run("select", p, out) == EXIT_OK
            hashes.append([l for l in out.read_text().splitlines()
                           if l.startswith("# config_hash=")])
        assert len(hashes[0]) == len(hashes[1]) == 1
        assert hashes[0] != hashes[1]


class TestRefusedBeforeOutput:
    @pytest.mark.parametrize("command,text,message", [
        ("codebook", "variant=fspm\nn=9\nm=1\nconstellation=qam\n", "partition depth 4"),
        ("select", "variant=ofspm\nn=5\nalgorithms=alg2,bogus\n", "unknown algorithm"),
        ("select", "variant=ospm\nn=4\nk=2\nalgorithms=alg2,exact\ntime_budget=nan\n",
         "time_budget must be finite"),
        ("codebook", "variant=ofspm\nn=5\nselection=bogus\n", "unknown algorithm"),
        # 40,320 patterns: L x L arrays of 1.6 GB and more
        ("select", "variant=mm\nn=8\nalgorithms=alg2\n", "8192 patterns"),
    ], ids=["qam_depth_4", "bogus_after_alg2", "nan_after_alg2", "codebook_bogus",
            "graph_order"])
    def test_exit_2_and_nothing_written(self, tmp_path, capsys, command, text, message):
        # every solver is checked before the bound line or any solver row
        p = write_cfg(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestBerCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        p = write_cfg(
            tmp_path, "b.cfg",
            "variant=spm\nn=4\nk=2\nm=2\nselection=alg1\n"
            "snr_start=0\nsnr_stop=10\nsnr_step=5\nmin_errors=150\nseed=5\n",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("ber", p, out1) == EXIT_OK
        assert run("ber", p, out2, "--workers", "3") == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("# spmofdm v")
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "# seed=5"
        assert lines[3] == "snr_db,bits,errors,ber,index_ber,mod_ber,converged"
        assert len(lines) == 7

    def test_seed_override_changes_output(self, tmp_path, monkeypatch):
        p = write_cfg(
            tmp_path, "b.cfg",
            "variant=ofdm\nn=1\nm=2\nsnr_start=5\nsnr_stop=5\nsnr_step=1\n"
            "min_errors=120\nseed=5\n",
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("ber", p, out1) == EXIT_OK
        monkeypatch.setenv("SPM_SEED", "123")
        assert run("ber", p, out2) == EXIT_OK
        body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert body1 != body2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        p = write_cfg(tmp_path, "b.cfg", "variant=mm\nn=2\nm=2\n"
                      "snr_start=10\nsnr_stop=10\nsnr_step=1\n")
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            run("ber", p, out, "--workers", workers)
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()
        assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err

    def test_nonconvergence_exit(self, tmp_path):
        p = write_cfg(
            tmp_path, "b.cfg",
            "variant=ofdm\nn=1\nm=2\nsnr_start=60\nsnr_stop=60\nsnr_step=1\n"
            "min_errors=100000\nmax_blocks=8192\n",
        )
        assert run("ber", p, tmp_path / "n.csv") == EXIT_NONCONVERGED

    def test_block_budget_below_one_batch(self, tmp_path):
        p = write_cfg(
            tmp_path, "b.cfg",
            "variant=ofdm\nn=1\nm=2\nsnr_start=10\nsnr_stop=10\nsnr_step=1\n"
            "max_blocks=100\n",
        )
        assert run("ber", p, tmp_path / "n.csv") == EXIT_CONFIG

    @pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["minus_one", "two_to_128"])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        # the Philox key is 128 bits: seed=-1 would run as 2^128 - 1
        p = write_cfg(tmp_path, "b.cfg", "variant=mm\nn=2\nm=2\n"
                      f"snr_start=10\nsnr_stop=10\nsnr_step=1\nseed={seed}\n")
        out = tmp_path / "b.csv"
        assert run("ber", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: seed must be in [0, 2^128)" in capsys.readouterr().err

    def test_with_bound_column(self, tmp_path):
        p = write_cfg(
            tmp_path, "b.cfg",
            "variant=spm\nn=4\nk=2\nm=2\nselection=alg1\nwith_bound=1\n"
            "snr_start=20\nsnr_stop=20\nsnr_step=1\nmin_errors=100\n",
        )
        out = tmp_path / "wb.csv"
        assert run("ber", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].endswith(",bound_ber")
        assert len(lines[1].split(",")) == 8


class TestBoundCommand:
    def test_schema(self, tmp_path):
        p = write_cfg(
            tmp_path, "bd.cfg",
            "variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n"
            "snr_start=10\nsnr_stop=30\nsnr_step=10\n",
        )
        out = tmp_path / "bound.csv"
        assert run("bound", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,bound_ber,pairs_enumerated,exact_flag"
        assert len(lines) == 4
        assert all(row.endswith(",1") for row in lines[1:])

    def test_sparse_table(self, tmp_path, capsys):
        # ofdm-im(8,1,8): 64 codewords over 9^8 per-subcarrier code tuples,
        # so both the bound and d_min walk the codeword pairs
        p = write_cfg(tmp_path, "bd.cfg", "variant=ofdm-im\nn=8\nn_active=1\nm=8\n"
                      "snr_start=10\nsnr_stop=10\nsnr_step=1\n")
        out = tmp_path / "bound.csv"
        assert run("bound", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        snr, ber, pairs, exact = lines[1].split(",")
        ref = union_bound_ber_pairs(_scheme_from_config(load_config(p)).codewords, 10.0)
        assert float(ber) == pytest.approx(ref.ber_bound, rel=1e-8)
        assert (snr, pairs, exact) == ("10", "4032", "1")
        assert run("codebook", p, tmp_path / "o.txt") == EXIT_OK
        assert "min_rank=1" in capsys.readouterr().out

    @pytest.mark.parametrize("grid", [
        "snr_start=0\nsnr_stop=inf\nsnr_step=1\n",
        "snr_start=-inf\nsnr_stop=0\nsnr_step=1\n",
        "snr_start=0\nsnr_stop=10\nsnr_step=nan\n",
        "snr_start=0\nsnr_stop=1e308\nsnr_step=1e-300\n",  # finite, but no end
        "snr_start=0\nsnr_stop=10\nsnr_step=0\n",
        "snr_start=10\nsnr_stop=0\nsnr_step=1\n",
    ], ids=["stop_inf", "start_minus_inf", "step_nan", "count_inf", "step_zero",
            "stop_below_start"])
    def test_bad_grid_exit(self, tmp_path, capsys, grid):
        p = write_cfg(tmp_path, "bd.cfg", "variant=ofdm\nn=1\nm=2\n" + grid)
        out = tmp_path / "bound.csv"
        assert run("bound", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: " in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path that cannot be opened for writing is a config error
    that names the path, found before any work, with nothing written."""

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, command, target):
        for module, name in ((codebook, "build_scheme"), (codebook, "build_index_codebook"),
                             (codebook, "rate"), (simulation, "simulate_ber"),
                             (simulation, "estimate_rate")):
            monkeypatch.setattr(module, name, lambda *a, n=name, **kw: pytest.fail(n))
        p = write_cfg(tmp_path, "c.cfg", "variant=ospm\nn=4\nk=2\nm=2\nalgorithms=alg2\n"
                      "snr_start=0\nsnr_stop=0\nsnr_step=1\nwith_bound=1\n")
        out = tmp_path / "absent" / "o.csv" if target == "missing_dir" else tmp_path
        assert run(command, p, out) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: cannot write {out}: " in captured.err

    def test_codebook_writes_both_or_neither(self, tmp_path, capsys):
        # only the second file, out + ".rates.csv", is unwritable
        p = write_cfg(tmp_path, "c.cfg", "variant=ospm\nn=4\nk=2\nm=2\n")
        (tmp_path / "o.csv.rates.csv").mkdir()
        assert run("codebook", p, tmp_path / "o.csv") == EXIT_CONFIG
        assert not (tmp_path / "o.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"config error: cannot write {tmp_path / 'o.csv.rates.csv'}: " in captured.err

    def test_output_key(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "b.cfg", "variant=ospm\nn=4\nk=2\nm=2\n"
                      f"snr_start=0\nsnr_stop=0\nsnr_step=1\noutput={tmp_path}\n")
        assert main(["bound", "--config", p]) == EXIT_CONFIG
        assert f"cannot write {tmp_path}: " in capsys.readouterr().err


class TestSizeGuards:
    """Counts known before anything is built: refused with exit 2 and the
    limit named, before the grid or the book exists."""

    @pytest.mark.parametrize("command", ["ber", "bound", "rate-mc"])
    def test_snr_grid_points(self, tmp_path, capsys, command):
        p = write_cfg(tmp_path, "g.cfg", "variant=ofdm\nn=1\nm=2\n"
                      "snr_start=0\nsnr_stop=1e8\nsnr_step=1\n")
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "100000001 points, above the limit 10000" in capsys.readouterr().err

    def test_snr_grid_at_limit(self):
        grid = dict(snr_start=-3000.0, snr_stop=1999.5, snr_step=0.5)
        assert len(_snr_grid(grid)) == MAX_SNR_POINTS == 10_000
        with pytest.raises(ConfigError, match="10001 points, above the limit 10000"):
            _snr_grid({**grid, "snr_stop": 2000.0})

    @pytest.mark.parametrize("command", ["ber", "bound", "rate-mc"])
    @pytest.mark.parametrize("snr", [-4000, 4000])
    def test_snr_beyond_range(self, tmp_path, capsys, command, snr):
        # 10^(4000/10) overflows a float: refused before any point runs
        p = write_cfg(tmp_path, "r.cfg", "variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n"
                      f"snr_start={min(snr, 0)}\nsnr_stop={max(snr, 0)}\nsnr_step={abs(snr)}\n")
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"SNR point {snr} dB is outside the limit of +-3000 dB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["ber", "bound", "rate-mc"])
    def test_snr_at_range_ends(self, tmp_path, command):
        p = write_cfg(tmp_path, "r.cfg", "variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n"
                      "snr_start=-3000\nsnr_stop=3000\nsnr_step=6000\n"
                      "max_blocks=4096\nmin_errors=1\ndraws=256\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the run
            # no error at +3000 dB within one batch: not converged
            assert run(command, p, out) in (EXIT_OK, EXIT_NONCONVERGED)
        rows = [l.split(",") for l in out.read_text().splitlines()[4:]]
        assert [r[0] for r in rows] == ["-3000", "3000"]
        assert all(math.isfinite(float(v)) for r in rows for v in r[:4])

    @pytest.mark.parametrize("command,text,count", [
        ("codebook", "variant=ofspm\nn=9\n", 7_087_261),
        ("select", "variant=ofspm\nn=9\nalgorithms=alg2\n", 7_087_261),
        ("codebook", "variant=mm\nn=11\n", 39_916_800),
        ("select", "variant=mm\nn=11\nalgorithms=alg2\n", 39_916_800),
        ("bound", "variant=mm\nn=11\nsnr_start=0\nsnr_stop=0\nsnr_step=1\n",
         39_916_800),
    ], ids=["codebook_ofspm9", "select_ofspm9", "codebook_mm11", "select_mm11", "bound_mm11"])
    def test_pattern_count(self, tmp_path, capsys, monkeypatch, command, text, count):
        real = codebook._variant
        monkeypatch.setattr(codebook, "_variant", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), patterns=lambda: pytest.fail("patterns enumerated")))
        p = write_cfg(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        assert (f"{count} patterns, above the enumeration limit {1 << 20}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["codebook", "bound", "ber"])
    def test_walk_pair_limit(self, tmp_path, capsys, monkeypatch, command):
        # mm(6,4): 2^21 codewords over 20 * 24^5 code tuples, above the
        # contraction cap; the walk's 2^41 pairs would take about 66 hours
        monkeypatch.setattr(simulation, "simulate_ber", lambda *a, **kw: pytest.fail("simulated"))
        p = write_cfg(tmp_path, "w.cfg", "variant=mm\nn=6\nm=4\nwith_bound=1\n"
                      "snr_start=0\nsnr_stop=0\nsnr_step=1\n")
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == [tmp_path / "w.cfg"]
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert (f"2097152 codewords over alphabets (20, 24, 24, 24, 24, 24) do not contract, "
                f"and their {(1 << 20) * ((1 << 21) - 1)} pairs exceed the walk limit "
                f"{codebook.MAX_WALK_PAIRS}" in captured.err)

    @pytest.mark.parametrize("command", ["bound", "codebook", "rate-mc", "ber"])
    def test_codeword_table_size(self, tmp_path, capsys, command):
        # ofdm(40,2) passes every count guard, but its 2^40-row symbol
        # table would take 8 TiB
        p = write_cfg(tmp_path, "t.cfg", "variant=ofdm\nn=40\nm=2\n"
                      "snr_start=0\nsnr_stop=0\nsnr_step=1\n")
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        assert (f"2^40 x 40 codeword table, above the limit {codebook.MAX_TABLE_SIZE} "
                "entries" in capsys.readouterr().err)

    @pytest.mark.parametrize("command,text,table", [
        ("bound", f"variant=ofdm\nn=1\nm={1 << 40}\n", "2^40 x 1"),
        ("ber", "variant=ofdm\nn=70\nm=2\n", "2^70 x 70"),
    ], ids=["bound_m_2_40", "ber_ofdm_70"])
    def test_codeword_table_size_before_family(self, tmp_path, capsys, command, text, table):
        # refused before the family's 2^40-point PSK or the BER words are drawn
        p = write_cfg(tmp_path, "t.cfg", text + "snr_start=0\nsnr_stop=0\nsnr_step=1\n")
        out = tmp_path / "o.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert (f"{table} codeword table, above the limit {codebook.MAX_TABLE_SIZE} entries"
                in err)
        assert "Traceback" not in err


class TestRateCommands:
    # rate-mc rows printed before the rate estimator's pattern-major rewrite;
    # 30 dB is still below saturation (f/n = 1.75 and 1.5), where stderr is
    # rounding noise whose digits follow the summation order
    @pytest.mark.parametrize("scheme,rows", [
        ("variant=ospm\nn=4\nk=2\nm=2\nselection=alg1\n", [
            "0,0.701223252,0.0137003269,512",
            "10,1.52170875,0.0111167232,512",
            "20,1.73378854,0.00266885953,512",
            "30,1.74932751,0.000596722719,512"]),
        ("variant=ofdm-im\nn=4\nn_active=2\nm=4\n", [
            "0,0.756612516,0.0149023492,512",
            "10,1.40449459,0.00720786878,512",
            "20,1.49100195,0.00195458751,512",
            "30,1.49958393,0.000353415547,512"]),
    ], ids=["ospm-4-2-2", "ofdm-im-4-2-4"])
    def test_rate_mc_printed_rows(self, tmp_path, scheme, rows):
        p = write_cfg(tmp_path, "r.cfg", scheme + "snr_start=0\nsnr_stop=30\nsnr_step=10\n"
                      "draws=512\nseed=1905\n")
        out = tmp_path / "r.csv"
        assert run("rate-mc", p, out) == EXIT_OK
        assert out.read_text().splitlines()[3:] == ["snr_db,rate,stderr,draws"] + rows

    def test_rate_table_sweep(self, tmp_path):
        p = write_cfg(
            tmp_path, "r.cfg",
            "variants=spm,ospm,mm,dm,gdm,fspm,ofspm\nk=auto\nm=1\n"
            "n_start=2\nn_stop=8\n",
        )
        out = tmp_path / "rates.csv"
        assert run("rate", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "variant,N,K,M,f1,f2,rate,raw_rate"
        assert len(lines) > 40

    def test_asymptote_column(self, tmp_path):
        p = write_cfg(tmp_path, "r.cfg",
                      "variants=spm,ospm\nk=2\nm=2\nn_start=4\nn_stop=6\nasymptotes=1\n")
        out = tmp_path / "ra.csv"
        assert run("rate", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].endswith(",asymptote")
        assert all(l.endswith(",2") for l in lines[1:])  # log2(k*m) = 2

    def test_single_scheme_rate(self, tmp_path):
        p = write_cfg(tmp_path, "r.cfg", "variant=ofspm\nn=4\nm=2\n")
        out = tmp_path / "r.csv"
        assert run("rate", p, out) == EXIT_OK
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        assert row.startswith("ofspm,4,")

    def test_rejected_rows_skipped(self, tmp_path):
        # mm takes k = n, so k=3 keeps only its n=3 row, as codebook would
        p = write_cfg(tmp_path, "r.cfg",
                      "variants=spm,mm\nk=3\nm=1\nn_start=2\nn_stop=4\n")
        out = tmp_path / "r.csv"
        assert run("rate", p, out) == EXIT_OK
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["spm", "3", "3"], ["spm", "4", "3"], ["mm", "3", "3"]]

    @pytest.mark.parametrize("text", [
        "variants=dm\nd=0\nn=4\n",
        "variants=dm,ofdm-im\nd=0\nn_active=0\nn=4\n",
        "variant=spm\nk=2\nm=3\nn=4\n",
    ])
    def test_all_rows_rejected(self, tmp_path, capsys, text):
        p = write_cfg(tmp_path, "r.cfg", text)
        out = tmp_path / "r.csv"
        assert run("rate", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "config error:" in capsys.readouterr().err

    def test_spm_requires_k(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "r.cfg", "variant=spm\nn=4\n")
        out = tmp_path / "r.csv"
        assert run("rate", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "spm requires k" in capsys.readouterr().err

    def test_empty_n_range(self, tmp_path):
        p = write_cfg(tmp_path, "r.cfg", "variants=spm\nk=2\nn_start=5\nn_stop=2\n")
        out = tmp_path / "r.csv"
        assert run("rate", p, out) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "r.cfg", "variants=spm,ofdm-im\nk=2\nn=4\n")
        assert run("rate", p, tmp_path / "r.csv") == EXIT_CONFIG
        assert "n_active" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        ("rate", "variants=fspm\nn=3000\n"),
        ("codebook", "variant=spm\nk=auto\nn=10000\n"),
        ("rate", "variant=spm\nk=auto\nn=1" + "0" * 400 + "\n"),
        # a sweep stops at the limit instead of skipping past it
        ("rate", "variants=gdm\nn_start=990\nn_stop=1" + "0" * 400 + "\n"),
    ], ids=["fspm_3000", "codebook_spm_10000", "spm_1e400", "sweep_past_limit"])
    def test_n_above_counting_limit(self, tmp_path, capsys, command, text):
        p = write_cfg(tmp_path, "r.cfg", text)
        out = tmp_path / "r.csv"
        assert run(command, p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: n must be <=" in capsys.readouterr().err

    def test_rate_mc(self, tmp_path):
        p = write_cfg(
            tmp_path, "rm.cfg",
            "variant=spm\nn=4\nk=2\nm=2\nselection=alg1\n"
            "snr_start=40\nsnr_stop=40\nsnr_step=1\ndraws=256\n",
        )
        out = tmp_path / "mc.csv"
        assert run("rate-mc", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,rate,stderr,draws"
        rate_val = float(lines[1].split(",")[1])
        assert abs(rate_val - 1.5) < 0.01  # saturated at f/N = 6/4

    @pytest.mark.parametrize("draws", [0, -7])
    def test_rate_mc_draws_below_one(self, tmp_path, capsys, draws):
        p = write_cfg(tmp_path, "rm.cfg", "variant=mm\nn=2\nm=2\n"
                      f"snr_start=10\nsnr_stop=10\nsnr_step=1\ndraws={draws}\n")
        out = tmp_path / "mc.csv"
        assert run("rate-mc", p, out) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: draws must be >= 1" in capsys.readouterr().err

    def test_rate_mc_past_the_old_pair_cap(self, tmp_path):
        # dm(4,2,8): J = 2^14 words on P = 4 patterns; the per-subcarrier
        # estimator costs J*P*n per draw and has no size cap
        p = write_cfg(tmp_path, "rm.cfg", "variant=dm\nn=4\nm=8\n"
                      "snr_start=10\nsnr_stop=10\nsnr_step=1\ndraws=256\n")
        out = tmp_path / "mc.csv"
        assert run("rate-mc", p, out) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,rate,stderr,draws"
        snr, rate_val, _, draws = lines[1].split(",")
        assert (snr, draws) == ("10", "256")
        assert 0.0 < float(rate_val) < 14 / 4


SCHEME_CONFIGS = [c for c in COMMITTED_CONFIGS if c.startswith(("ber_", "rate_mc_"))]


class TestCommittedConfigs:
    def test_found(self):
        assert len(COMMITTED_CONFIGS) >= 30

    @pytest.mark.parametrize("name", COMMITTED_CONFIGS)
    def test_loads_and_resolves(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        variants = cfg["variants"].split(",") if "variants" in cfg else [cfg["variant"]]
        if "n_start" in cfg:
            ns = range(cfg["n_start"], cfg["n_stop"] + 1)
        else:
            ns = [cfg["n"]]
        for v in variants:
            for n in ns:
                _variant(v, n, cfg.get("k"), cfg.get("d"), cfg.get("n_active"))

    @pytest.mark.parametrize("name", SCHEME_CONFIGS)
    def test_scheme_builds(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        scheme = _scheme_from_config(cfg)
        assert scheme.family.M == cfg["m"]
        assert scheme.codewords.shape == (1 << scheme.f, cfg["n"])
