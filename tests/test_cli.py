"""Command-line interface: subcommands, formats, and exit codes."""

import csv
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import cloverlie
from cloverlie import GrowthTable, ParameterTuple, analytics, cli, closure, gk_periodic, monomials
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
def test_growth_out_writes_text_in_chunks(capsys, tmp_path, monkeypatch, fmt):
    # chunks of 7 rows: 300 rows end inside a chunk; the file is the whole text
    monkeypatch.setattr(monomials, "_RENDER_CHUNK", 7)
    target = tmp_path / f"t.{fmt}"
    args = ("growth", "--p", "3", "--tuple", "constant:1,1", "--max-weight", "300")
    code, out, _ = run(capsys, *args, "--format", fmt, "--out", str(target))
    assert code == 0 and "wrote 300 rows" in out
    code, want, _ = run(capsys, *args, "--format", fmt)
    assert code == 0 and target.read_bytes() == want.encode()


@pytest.fixture(scope="module")
def table_200k():
    return cloverlie.growth_table(ParameterTuple.constant(2, 1, 1), 200_000)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_growth_out_holds_no_copy_of_the_text(capsys, tmp_path, monkeypatch, table_200k, fmt):
    # the text goes to the file one chunk at a time; one string of it all
    # would be as large as the file
    monkeypatch.setattr(cli, "growth_table", lambda tup, max_weight: table_200k)
    target = tmp_path / f"t.{fmt}"
    args = ["growth", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "200000"]
    tracemalloc.start()
    try:
        code = main([*args, "--format", fmt, "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "wrote 200000 rows" in capsys.readouterr().out
    assert peak < target.stat().st_size / 4


def test_growth_refusal_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "t.csv"
    args = ("growth", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "5000000")
    code, out, err = run(capsys, *args, "--out", str(target))
    assert code == 2 and out == "" and "table too large" in err
    assert not target.exists()


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


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["growth", "--tuple", "constant:1,1", "--max-weight", "200001"], 200001),
        (["bounds", "--tuple", "periodic:1,1;2,1", "--max-weight", "200001"], 200001),
        (["basis", "--tuple", "constant:1,1", "--depth", "14"], 531441),
    ],
    ids=["growth", "bounds", "basis"],
)
def test_dense_table_refusal_names_the_row_limit(capsys, argv, rows):
    # no command takes checkpoint weights, so the message offers none, and
    # every command refuses before it prints anything
    code, got_out, err = run(capsys, argv[0], "--p", "2", *argv[1:])
    assert code == 2
    assert got_out == ""
    assert err == f"error: table too large: {rows} rows exceed the limit of 200000\n"


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


@pytest.mark.parametrize(
    "modes",
    [
        ("--S", "3", "--tuple", "constant:1,1"),
        ("--S", "1", "--R", "1", "--tuple", "constant:1,1"),
        ("--scan", "--max", "4", "--tuple", "constant:1,1"),
        ("--scan", "--max", "4", "--S", "1", "--R", "1"),
        ("--scan", "--max", "4", "--R", "1"),
        ("--S", "1"),
        ("--R", "1"),
    ],
)
def test_gk_takes_exactly_one_mode(capsys, modes):
    # a second mode, or half of --S/--R, is refused rather than ignored
    code, out, err = run(capsys, "gk", "--p", "2", *modes)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gk_scan_requires_max(capsys):
    code, _, err = run(capsys, "gk", "--scan", "--p", "2")
    assert code == 2


# the last is 399,165,290,221 * 798,330,580,441, which passes Miller-Rabin to
# the twelve prime bases through 37
@pytest.mark.parametrize("p", ["0", "1", "-3", "4", "318665857834031151167461"])
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


def test_gk_scan_refuses_malformed_interval(capsys):
    code, out, err = run(
        capsys, "gk", "--scan", "--p", "2", "--max", "4", "--interval", "1.1"
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: interval must look like 1.1,2.9; got '1.1'"]


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


def _no_closure(*args):
    raise AssertionError("closure built for a refused sample count")


@pytest.mark.parametrize("samples", [closure.MAX_NIL_SAMPLES + 1, 100_000_000_000])
def test_nil_refuses_samples_above_cap(capsys, monkeypatch, samples):
    # every result is kept, so an unbounded count would run until killed;
    # it is refused before the closure is built
    monkeypatch.setattr(closure, "_standard_closure", _no_closure)
    code, out, err = run(
        capsys,
        "nil",
        "--p",
        "2",
        "--tuple",
        "constant:1,1",
        "--depth",
        "5",
        "--samples",
        str(samples),
        "--seed",
        "1",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: samples must be in 0..{closure.MAX_NIL_SAMPLES}, got {samples}"
    ]


def test_nil_accepts_samples_at_cap(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(closure, "_standard_closure", reached)
    with pytest.raises(Reached):
        closure.sample_nil_chains(
            ParameterTuple.constant(2, 1, 1), 5, closure.MAX_NIL_SAMPLES, seed=1
        )


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


def test_bounds_failed_check_exits_1(capsys, monkeypatch):
    # one total pushed past the upper bound at m = 226, the first row of
    # ladder segment n = 3 (mu = 15): that row fails with its witness
    real = cli.growth_table

    def corrupted(tup, max_weight, weights=None):
        t = real(tup, max_weight, weights)
        totals = list(t.totals)
        totals[225] += 10**9
        cols = (t.ms, t.first, t.second, t.power_first, t.power_second, totals)
        return GrowthTable._of_columns(t.p, t.tuple_spec, cols)

    monkeypatch.setattr(cli, "growth_table", corrupted)
    code, out, _ = run(
        capsys, "bounds", "--p", "2", "--tuple", "periodic:1,1;2,1", "--max-weight", "3000"
    )
    assert code == 1
    assert out == (
        "suite growth-sandwich: 5999 pass, 1 fail, 0 outside trusted zone\n"
        "  FAIL: sandwich-upper m=226 n=3\n"
        "    witness: total=1000009079 exceeds 270532629\n"
    )


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
        (["basis", "--tuple", "constant:1,1", "--depth", "7", "--check"], 16908),
    ],
    ids=["basis-kappa-depth5", "nil-depth7", "basis-depth7"],
)
def test_oversized_closure_is_config_error(argv, dim):
    # refused from the descriptor count before any bracket is taken
    proc = run_subprocess(argv, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    depth = argv[argv.index("--depth") + 1]
    assert proc.stderr.splitlines() == [
        f"error: closure too large: {dim} basis elements at depth {depth} "
        "exceed the limit 10000"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--tuple", "constant:1,1", "--depth", "1000", "--check"],
        ["nil", "--tuple", "constant:1,1", "--depth", "5000", "--samples", "1",
         "--seed", "1"],
    ],
    ids=["basis-depth1000", "nil-depth5000"],
)
def test_out_of_range_depth_is_config_error(argv):
    # sizing the closure recurses once per generation, past the recursion limit
    proc = run_subprocess(argv, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: RecursionError maximum recursion depth exceeded"]
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


def test_fit_reads_the_file_line_by_line(capsys, tmp_path, monkeypatch, table_200k):
    # the read keeps the table's columns; the file's text, whole or copied,
    # would add about 4x its size
    target = tmp_path / "t.csv"
    target.write_text(table_200k.to_csv())
    seen = []

    def capture(table, level):
        seen.append((table, tracemalloc.get_traced_memory()[1]))
        tracemalloc.stop()
        return analytics.estimate_exponent(table, level)

    monkeypatch.setattr(cli, "estimate_exponent", capture)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "fit", "--in", str(target), "--level", "gk")
    finally:
        tracemalloc.stop()
    [(table, peak)] = seen
    assert code == 0 and "beta" in out
    assert peak < 4 * target.stat().st_size
    assert table == GrowthTable.from_csv(target.read_text())


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
    "argv",
    [
        ["gk", "--S", "1", "--R", "1"],
        ["growth", "--tuple", "constant:1,1", "--max-weight", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_strong_pseudoprime_p(capsys, argv):
    # 399,165,290,221 * 798,330,580,441 passes Miller-Rabin to the bases through 37
    psi_12 = "318665857834031151167461"
    code, out, err = run(capsys, argv[0], "--p", psi_12, *argv[1:])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: p must be prime, got {psi_12}"]


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError(), "error: MemoryError"),
        (OverflowError("int too large"), "error: OverflowError int too large"),
        (RecursionError("maximum recursion depth exceeded"),
         "error: RecursionError maximum recursion depth exceeded"),
    ],
    ids=["memory", "overflow", "recursion"],
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


def test_readme_command_lines_parse():
    # every example of README's "Command line" block parses; none is run
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cloverlie ")]
    assert len(lines) >= 6
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


# ---------------------------------------------------------------------------
# guards reached through the command line


@pytest.mark.parametrize(
    "extra",
    [("--S", "1", "--R", "1", "--max", "4"), ("--tuple", "constant:1,1", "--interval", "9,1")],
    ids=["max", "interval"],
)
def test_gk_refuses_scan_options_outside_scan(capsys, extra):
    code, out, err = run(capsys, "gk", "--p", "2", *extra)
    assert (code, out) == (2, "")
    assert err == "error: --max and --interval apply only to gk --scan\n"


def test_gk_range_check_failure_is_an_internal_check(capsys, monkeypatch):
    # only a wrong ladder reaches it: every valid rule's exponent lies in [1, 3]
    monkeypatch.setattr(analytics, "_period", lambda tup: (1, 3, 100))
    code, out, err = run(capsys, "gk", "--p", "2", "--S", "1", "--R", "1")
    assert (code, out) == (1, "")
    assert err.startswith("internal check failed: certified range check failed")


@pytest.mark.parametrize(
    "spec", ["kappa:3/4", "kappa:4/5", "qkappa:1,2", "qkappa:1,5/2", "qkappa:1,3"]
)
def test_bounds_certifies_slowly_growing_tails(capsys, spec):
    # kappa:3/4 is certified at tail index 4,096 (its ratio test fails at 8
    # and 16), kappa:4/5 at 262,144; the tower rules with kappa >= 2 at p = 2
    # from the increments' growth (analytics._qkappa_tail)
    weight = "100" if spec.startswith("kappa") else "1000"
    code, out, err = run(capsys, "bounds", "--p", "2", "--tuple", spec, "--max-weight", weight)
    assert (code, err) == (0, "")
    assert re.fullmatch(r"suite quasilinear-bounds: \d+ pass, 0 fail, 0 outside trusted zone\n", out)


def test_bounds_refuses_a_tail_past_the_index_bound(capsys):
    code, out, err = run(
        capsys, "bounds", "--p", "2", "--tuple", "kappa:9/10", "--max-weight", "100"
    )
    assert (code, out) == (2, "")
    assert err == "error: tail of rule kappa:9/10 not certified up to index 524288\n"


def test_bounds_below_weight_two_checks_nothing(capsys):
    code, out, err = run(capsys, "bounds", "--p", "2", "--tuple", "kappa:1/2", "--max-weight", "1")
    assert (code, out, err) == (0, "suite quasilinear-bounds: 0 pass, 0 fail, 0 outside trusted zone\n", "")


def _table_file(tmp_path, rows):
    """A saved growth table whose counts are all in the first family."""
    target = tmp_path / "table.csv"
    target.write_text(GrowthTable(2, "", [(m, t, 0, 0, 0, t) for m, t in rows]).to_csv(), newline="")
    return str(target)


@pytest.mark.parametrize(
    "rows, level",
    [
        # level 0 skips every row with total <= m, leaving no point
        ([(m, m) for m in range(1, 101)], "0"),
        # level 4 skips every row, those with ln ln ln m <= 0 (m <= 15) inside
        # the iterated logarithm, the others as ln^(4) m <= 0 (m <= 3.8e6)
        ([(m, 3 * m) for m in range(1, 101)], "4"),
        # weights 10**30 .. 10**30 + 7 share one float logarithm: no spread
        ([(1, 1), *((10**30 + i, 10**30 + i) for i in range(8))], "gk"),
    ],
    ids=["level0-no-points", "level4-no-points", "no-spread"],
)
def test_fit_refuses_windows_without_a_slope(capsys, tmp_path, rows, level):
    code, out, err = run(capsys, "fit", "--in", _table_file(tmp_path, rows), "--level", level)
    assert (code, out, err) == (2, "", "error: window too small\n")

