"""Command-line interface: subcommands, formats, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import cloverlie
from cloverlie import GrowthTable, ParameterTuple, cli, closure, gk_periodic
from cloverlie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv, timeout):
    """Run ``cloverlie <argv[0]> --p 2 <argv[1:]>`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cloverlie.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cloverlie.cli", argv[0], "--p", "2", *argv[1:]],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


# ---------------------------------------------------------------------------
# growth


def test_growth_csv(capsys):
    code, out, err = run(
        capsys, "growth", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "9"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "m",
        "gamma_total",
        "first",
        "second",
        "power_first",
        "power_second",
        "log_gamma_over_log_m",
    ]
    assert rows[1][:2] == ["1", "3"]
    assert rows[9][:2] == ["9", "53"]
    table = GrowthTable.from_csv(out, p=2, tuple_spec="constant:1,1")
    assert table.gamma(9) == 53


def test_growth_json(capsys):
    code, out, _ = run(
        capsys,
        "growth",
        "--p",
        "3",
        "--tuple",
        "constant:1,1",
        "--max-weight",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 3
    assert obj["tuple"] == "constant:1,1"
    assert len(obj["rows"]) == 5


def test_growth_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "growth",
        "--p",
        "2",
        "--tuple",
        "kappa:1/2",
        "--max-weight",
        "15",
        "--out",
        str(target),
    )
    assert code == 0
    assert "wrote 15 rows" in out
    table = GrowthTable.from_csv(target.read_text())
    assert len(table.rows) == 15
    assert table.gamma(15) == table.rows[-1][-1] > 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_growth_out_writes_text_in_slices(capsys, tmp_path, monkeypatch, fmt):
    # slices of 7 characters cut rows and CRLF pairs; the file is the whole text
    monkeypatch.setattr(cli, "_WRITE_SLICE", 7)
    target = tmp_path / f"t.{fmt}"
    args = ("growth", "--p", "3", "--tuple", "constant:1,1", "--max-weight", "300")
    code, out, _ = run(capsys, *args, "--format", fmt, "--out", str(target))
    assert code == 0 and "wrote 300 rows" in out
    code, want, _ = run(capsys, *args, "--format", fmt)
    assert code == 0 and target.read_bytes() == want.encode()


def test_growth_rejects_oversized_request(capsys):
    code, _, err = run(
        capsys,
        "growth",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--max-weight",
        "5000000",
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# basis


def test_basis_check_passes(capsys):
    code, out, _ = run(
        capsys,
        "basis",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "4",
        "--check",
    )
    assert code == 0
    assert "pass" in out and "0 fail" in out


def test_basis_check_builds_one_closure(capsys, monkeypatch):
    calls = []
    real = closure.restricted_closure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    closure._standard_closure.cache_clear()
    monkeypatch.setattr(closure, "restricted_closure", counting)
    code, _, _ = run(
        capsys, "basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "4", "--check"
    )
    assert code == 0
    assert len(calls) == 1


def test_basis_without_check_prints_zone_table(capsys):
    code, out, _ = run(
        capsys, "basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "4"
    )
    assert code == 0
    assert "trusted weight bound at depth 4: 9" in out
    assert "gamma_total" in out


# ---------------------------------------------------------------------------
# gk


def test_gk_constant(capsys):
    code, out, _ = run(capsys, "gk", "--p", "2", "--S", "1", "--R", "1")
    assert code == 0
    assert "1.89278926071" in out


def test_gk_tuple(capsys):
    code, out, _ = run(capsys, "gk", "--p", "2", "--tuple", "periodic:1,1;5,1")
    assert code == 0
    assert "1.50844200623" in out


@pytest.mark.parametrize(
    "rule, spec",
    [(("--S", "20000", "--R", "1"), "constant:20000,1"),
     (("--tuple", "periodic:20000,1;1,1"), "periodic:20000,1;1,1")],
)
def test_gk_mu_beyond_int_str_digit_limit(capsys, rule, spec):
    # mu = W_q has over 6,000 decimal digits, past the default int-to-str
    # limit, so it prints by bit length and the exponent still prints
    code, out, err = run(capsys, "gk", "--p", "2", *rule)
    assert (code, err) == (0, "")
    report = gk_periodic(ParameterTuple.from_spec(2, spec))
    assert f" mu=<{report.mu.bit_length()}-bit integer> " in out
    assert out.rstrip("\n").split(" exponent=")[1] == report.lam


def test_gk_scan(capsys):
    code, out, _ = run(capsys, "gk", "--scan", "--p", "2", "--max", "8")
    assert code == 0
    assert "64" in out


def test_gk_scan_interval(capsys):
    code, out, _ = run(
        capsys, "gk", "--scan", "--p", "2", "--max", "8", "--interval", "1.0,3.0"
    )
    assert code == 0


def test_gk_requires_some_mode(capsys):
    code, _, err = run(capsys, "gk", "--p", "2")
    assert code == 2
    assert "error:" in err


def test_gk_scan_requires_max(capsys):
    code, _, err = run(capsys, "gk", "--scan", "--p", "2")
    assert code == 2


@pytest.mark.parametrize("p", ["0", "1", "-3", "4"])
def test_gk_scan_refuses_non_prime(capsys, p):
    code, out, err = run(capsys, "gk", "--scan", "--p", p, "--max", "3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: p must be prime, got {p}"]


def test_gk_scan_refuses_oversized_grid(capsys):
    # refused before any cell is evaluated
    code, out, err = run(capsys, "gk", "--scan", "--p", "2", "--max", "3000")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: grid too large: 3000 x 3000 = 9000000 cells exceed cap 16384"
    ]


# ---------------------------------------------------------------------------
# nil


def test_nil_run(capsys):
    code, out, _ = run(
        capsys,
        "nil",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "4",
        "--samples",
        "10",
        "--seed",
        "7",
    )
    assert code == 0
    assert "sample 0:" in out
    assert "10 samples:" in out


def test_nil_seed_required(capsys):
    code, _, err = run(
        capsys,
        "nil",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "4",
        "--samples",
        "5",
    )
    assert code == 2


def test_nil_rejects_negative_samples(capsys):
    code, out, err = run(
        capsys,
        "nil",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "4",
        "--samples",
        "-3",
        "--seed",
        "7",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("max_terms", ["0", "-2"])
def test_nil_rejects_max_terms_below_one(capsys, max_terms):
    code, out, err = run(
        capsys,
        "nil",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "4",
        "--samples",
        "3",
        "--seed",
        "7",
        "--max-terms",
        max_terms,
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: max_terms must be >= 1, got {max_terms}"]


def test_nil_deterministic(capsys):
    args = (
        "nil",
        "--p",
        "3",
        "--tuple",
        "constant:1,1",
        "--depth",
        "3",
        "--samples",
        "8",
        "--seed",
        "123",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# bounds


def test_bounds_periodic_default_suite(capsys):
    code, out, _ = run(
        capsys,
        "bounds",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--max-weight",
        "100",
    )
    assert code == 0
    assert "growth-sandwich" in out


def test_bounds_power_rule_default_suite(capsys):
    code, out, _ = run(
        capsys,
        "bounds",
        "--p",
        "2",
        "--tuple",
        "kappa:1/2",
        "--max-weight",
        "200",
    )
    assert code == 0
    assert "quasilinear-bounds" in out


def test_bounds_suite_mismatch_is_config_error(capsys):
    code, _, err = run(
        capsys,
        "bounds",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--max-weight",
        "50",
        "--suite",
        "quasilinear",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--tuple", "qkappa:3,1", "--max-weight", "1000"],
        ["bounds", "--tuple", "qkappa:2,1", "--max-weight", "1000"],
        ["growth", "--tuple", "qkappa:2,1", "--max-weight", "100"],
        ["basis", "--tuple", "qkappa:2,1", "--depth", "3"],
        ["bounds", "--tuple", "kappa:1/100", "--max-weight", "1000"],
        ["growth", "--tuple", "explicit:1,1;100000000000,1", "--max-weight", "100"],
        # the later --p wins: refused before exp^(3) of an argument near 10**230000
        ["growth", "--p", "3", "--tuple", "qkappa:3,1/2", "--max-weight", "100"],
        # the period's pairs come from the tuple, which refuses p**(10**12)
        ["gk", "--p", "3", "--tuple", "periodic:2,1;1000000000000,1"],
        ["bounds", "--p", "3", "--tuple", "periodic:2,1;1000000000000,1",
         "--max-weight", "1"],
        ["bounds", "--tuple", "qkappa:4,100", "--max-weight", "100000"],
    ],
    ids=[
        "bounds-qkappa3",
        "bounds-qkappa2",
        "growth-qkappa2",
        "basis-qkappa2",
        "bounds-kappa1of100",
        "growth-explicit1e11",
        "growth-qkappa3-half-p3",
        "gk-periodic1e12-p3",
        "bounds-periodic1e12-p3",
        "bounds-qkappa4",
    ],
)
def test_bounds_tower_entry_too_large_is_config_error(argv):
    proc = run_subprocess(argv, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: tuple entry too large to materialize"]


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["basis", "--tuple", "kappa:1/2", "--depth", "5", "--check"], 127111),
        (["nil", "--tuple", "constant:1,1", "--depth", "7", "--samples", "1",
          "--seed", "1"], 16908),
    ],
    ids=["basis-kappa-depth5", "nil-depth7"],
)
def test_oversized_closure_is_config_error(argv, dim):
    # refused from the descriptor count before any bracket is taken
    proc = run_subprocess(argv, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: closure too large: {dim} basis elements")
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# fit


def test_fit_from_csv(capsys, tmp_path):
    target = tmp_path / "growth.csv"
    code, _, _ = run(
        capsys,
        "growth",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--max-weight",
        "2187",
        "--out",
        str(target),
    )
    assert code == 0
    code, out, _ = run(capsys, "fit", "--in", str(target), "--level", "gk")
    assert code == 0
    assert "beta" in out


def test_fit_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "fit", "--in", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


def test_fit_empty_file(capsys, tmp_path):
    # an empty file has no header; it is refused like a foreign one
    target = tmp_path / "empty.csv"
    target.write_text("")
    code, out, err = run(capsys, "fit", "--in", str(target), "--level", "gk")
    assert (code, out, err) == (2, "", "error: unrecognized growth table header\n")


# ---------------------------------------------------------------------------
# config errors


def test_bad_tuple_spec(capsys):
    code, _, err = run(
        capsys, "growth", "--p", "2", "--tuple", "bogus:1", "--max-weight", "5"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "--max-weight", "1000"],
        ["basis", "--depth", "3"],
        ["nil", "--depth", "3", "--samples", "1", "--seed", "0"],
        ["bounds", "--max-weight", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_short_explicit_rule_is_config_error(capsys, argv):
    # the rule itself is valid; the run needs an entry past its end
    code, out, err = run(capsys, *argv[:1], "--p", "2", "--tuple", "explicit:1,1", *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: explicit tuple has only 1 entries, index 1 requested\n"


def test_nonprime_p(capsys):
    code, _, err = run(
        capsys, "growth", "--p", "4", "--tuple", "constant:1,1", "--max-weight", "5"
    )
    assert code == 2


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: MemoryError"),
        (OverflowError("int too large"), "error: OverflowError int too large"),
    ],
    ids=["memory", "overflow"],
)
def test_resource_errors_are_config_errors(capsys, monkeypatch, exc, line):
    def exhausted(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "growth", exhausted)
    code, out, err = run(
        capsys, "growth", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "5"
    )
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [line]
    assert out == ""


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "growth", "--p", "2")
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
