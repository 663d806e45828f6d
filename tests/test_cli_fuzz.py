"""Fuzzed configs: every command, over every config key, ends with a
documented exit code and no uncaught exception.

Values are drawn per key from small valid ones and from empty, negative,
zero, NaN, infinite and non-numeric text. Sizes stay small: n <= 4, and m
is a small power of two or one of the values refused before any table is
built (>= 2^25). The keys whose library defaults run long (the alg1 subset
budget, the BER block budget and the rate draws) are always set, to small
values or to junk; every other key may be left out.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from spmofdm import cli  # noqa: E402

COMMANDS = sorted(cli._COMMANDS)
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NONCONVERGED, cli.EXIT_BUDGET}
JUNK = ["", "-1", "0", "nan", "inf", "x", "2.5"]


def comma_lists(names):
    return [",".join(c) for c in ([], ["bogus"], names[:1], names[1:], names + [""])]


VARIANTS = ["spm", "ospm", "fspm", "ofspm", "mm", "dm", "gdm", "ofdm-im", "ofdm", "im"]
SMALL = ["1", "2", "3", "4"]
VALUES = {
    "scheme": ["label", "a b"],
    "variant": [*VARIANTS, "OFSPM", "bogus"],
    "variants": comma_lists(VARIANTS),
    "n": SMALL,
    "n_start": [*SMALL, "6"],
    "n_stop": [*SMALL, "6"],
    "k": ["auto", "AUTO", *SMALL],
    "m": ["2", "2", "4", "4", "1", "3", "-2", str(1 << 25), str(1 << 40)],
    "d": SMALL,
    "n_active": SMALL,
    "constellation": ["psk", "qam", "PSK"],
    "selection": ["none", "alg1", "alg2", "exact", "bogus"],
    "pad_to": ["8", "16", "100"],
    "budget": ["1", "100", "1000"],
    "time_budget": ["0.05", "1", "-inf", "-0.5"],
    "algorithms": comma_lists(["alg1", "alg2", "exact"]),
    "graph": ["good.txt", "bad.txt", "empty.txt", "missing.txt", "."],
    "snr_start": ["-10", "10", "20", "-4000", "4000"],
    "snr_stop": ["-10", "10", "20", "4000"],
    "snr_step": ["10", "15", "1e-9", "-10"],
    "seed": ["1905", "7", str(1 << 128), "-5"],
    "min_errors": ["1", "10", "200"],
    "max_blocks": ["4096", "8192"],
    "draws": ["1", "256"],
    "with_bound": ["1", "true", "no"],
    "asymptotes": ["1", "yes", "false"],
    "output": ["out_key.csv", ".", "no/o.csv"],
}
ALWAYS_SET = {"budget", "max_blocks", "draws"}
USUALLY_SET = {"variant", "n", "snr_start", "snr_stop", "snr_step"}


def test_every_key_is_drawn():
    assert set(VALUES) == set(cli._KEYS)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "good.txt").write_text("0 1\n0 2\n1 2\n2 3\n")
    (d / "bad.txt").write_text("0 1\n1 x\n")
    (d / "empty.txt").write_text("# no edges\n")
    return d


@st.composite
def configs(draw):
    """Every key set or left out, with at most one odd key: junk in its value
    (a config with junk anywhere stops at load_config), or a usually set key
    left out."""
    odd = draw(st.one_of(st.none(), st.sampled_from(sorted(VALUES))))
    lines = []
    for key, values in VALUES.items():
        if key == odd and (key in ALWAYS_SET or draw(st.booleans())):
            lines.append(f"{key}={draw(st.sampled_from(JUNK))}")
        elif key in ALWAYS_SET or (key in USUALLY_SET) != (key == odd) or draw(st.booleans()):
            lines.append(f"{key}={draw(st.sampled_from(values))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=1000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_documented_exit_codes(files, monkeypatch, data):
    monkeypatch.chdir(files)  # paths in the configs, and the default output, are relative
    command = data.draw(st.sampled_from(COMMANDS))
    text = data.draw(configs())
    cfg = files / "fuzz.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if data.draw(st.booleans()):
        argv += ["--out", str(files / "out_arg.csv")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in DOCUMENTED, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
