"""Fuzzing the command line in-process: every invocation keeps the exit-code
contract (0 passed, 1 a check failed, 2 invalid input or out of range),
never lets an exception escape ``main`` and finishes quickly.

Inputs stay small (depth <= 3, at most 5 samples, scan grids up to 16 x 16,
dense tables up to 1,000 rows) but cover invalid primes, degenerate and
oversized tuple entries and checkpoint-sized huge weights.  Each argument
has a pool of valid and a pool of invalid values.  Half of the invocations
take every argument from its valid pool, so they get past the input checks
and do real work; the other half take exactly one argument from its invalid
pool, so each refusal is reached on its own.  The invalid rule pools also
hold rules that parse but are refused during the run (an explicit rule
with too few entries, a tower closure above the closure limit), and, as
their entries run from -1 to 2, some valid rules.  Valid arguments may
still combine into an input that is out of range (a closure above the
closure limit, a tower entry too large to materialize); those exit 2 as
well.  Since 15 draws reach few of the fixed invalid values, each of them
is also refused once on its own, with every other argument valid.
"""

import contextlib
import io
import re
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloverlie import ParameterTuple, growth_table
from cloverlie.cli import main
from cloverlie.closure import MAX_NIL_SAMPLES

# Seconds one invocation may take; the slowest inputs these strategies can
# draw (nil and basis --check at p = 3, depth 3) need about 9 s.
TIME_BOUND = 30

PRIMES = (2, 3, 5)
NON_PRIME_VALUES = (0, 1, -3, 4, 9)
NON_PRIMES = st.sampled_from(NON_PRIME_VALUES)
P = (st.sampled_from(PRIMES), NON_PRIMES)
SMALL_P = (st.sampled_from((2, 3)), NON_PRIMES)


def _joined(entry, min_size, max_size):
    pairs = st.lists(st.tuples(entry, entry), min_size=min_size, max_size=max_size)
    return pairs.map(lambda ps: ";".join(f"{s},{r}" for s, r in ps))


def _rules(entry, fixed):
    return st.one_of(
        st.builds("constant:{},{}".format, entry, entry),
        _joined(entry, 1, 3).map("periodic:{}".format),
        _joined(entry, 1, 3).map("explicit:{}".format),
        st.sampled_from(fixed),
    )


ENTRY = st.integers(1, 2)
REPEATING = st.one_of(
    st.builds("constant:{},{}".format, ENTRY, ENTRY),
    _joined(ENTRY, 1, 3).map("periodic:{}".format),
)
# twelve entries outlast every weight and depth drawn here
EXPLICIT = _joined(ENTRY, 12, 12).map("explicit:{}".format)
# valid rules that run out of entries during the computation
SHORT_EXPLICIT = _joined(ENTRY, 1, 3).map("explicit:{}".format)
# kappa:3/4 reaches the power-law tail's fall-back, qkappa:1,2 at p = 2 the
# tower tail's certificate for an increment ratio of exactly 2
POWER_LAW = st.sampled_from(("kappa:1/2", "kappa:2/3", "kappa:3/4"))
ANALYTIC = st.one_of(POWER_LAW, st.sampled_from(("qkappa:1,1", "qkappa:1,2")))
INVALID_RULE_VALUES = (
    "kappa:0",
    "kappa:3/2",
    "kappa:1/0",
    "qkappa:0,1",
    "constant:1000000000000,1",
    "periodic:2,1;1000000000000,1",
    "explicit:1,1;100000000000,1",
    "constant:1",
    "bogus:1,1",
    "",
    # valid rules whose second entry is too large to materialize
    "qkappa:2,1",
    "qkappa:3,1/2",
)
INVALID_RULE = _rules(st.integers(-1, 2), INVALID_RULE_VALUES)
RULE = (st.one_of(REPEATING, EXPLICIT, ANALYTIC), st.one_of(INVALID_RULE, SHORT_EXPLICIT))
# a qkappa closure at depth 3 is far above the closure limit
CLOSURE_RULE = (
    st.one_of(REPEATING, EXPLICIT, POWER_LAW),
    st.one_of(INVALID_RULE, SHORT_EXPLICIT, st.just("qkappa:1,1")),
)
DEPTH = (st.integers(2, 3), st.integers(-1, 1))
WEIGHT = (st.integers(1, 1000), st.integers(-1, 0))
HUGE_WEIGHT = st.integers(6, 60).map(lambda k: 10**k)
INVALID_SAMPLES = (MAX_NIL_SAMPLES + 1, 10**11)


@st.composite
def _argv(draw, command, *args):
    """``command`` followed by one part per (valid, invalid) pair of argument
    strategies (invalid None: the argument has no invalid value): all parts
    valid, or exactly one drawn invalid."""
    can_fail = [i for i, (_, invalid) in enumerate(args) if invalid is not None]
    bad = draw(st.sampled_from(can_fail)) if draw(st.booleans()) else None
    parts = [draw(invalid if i == bad else valid) for i, (valid, invalid) in enumerate(args)]
    return [command, *(str(tok) for part in parts for tok in part)]


def _flag(name, pair):
    return tuple(None if s is None else s.map(lambda v: [name, v]) for s in pair)


def _bounds_run(rule, weight):
    return ["--tuple", rule, "--max-weight", weight]


# The rule picks the suite of ``bounds``, and the weight must suit it: the
# period suite takes constant and periodic rules and a dense table, the
# quasilinear suite power and tower rules and any weight.  An invalid run
# changes one of the two.
BOUNDS_RUN = (
    st.one_of(
        st.tuples(REPEATING, WEIGHT[0]),
        st.tuples(ANALYTIC, st.one_of(WEIGHT[0], HUGE_WEIGHT)),
    ).map(lambda t: _bounds_run(*t)),
    st.one_of(
        st.tuples(st.one_of(INVALID_RULE, SHORT_EXPLICIT, EXPLICIT), WEIGHT[0]),
        st.tuples(REPEATING, st.one_of(WEIGHT[1], HUGE_WEIGHT)),
        st.tuples(ANALYTIC, WEIGHT[1]),
    ).map(lambda t: _bounds_run(*t)),
)

COMMANDS = {
    "growth": _argv(
        "growth", _flag("--p", P), _flag("--tuple", RULE), _flag("--max-weight", WEIGHT),
        _flag("--format", (st.sampled_from(("csv", "json")), st.just("xml"))),
    ),
    "basis": _argv(
        "basis", _flag("--p", SMALL_P), _flag("--tuple", CLOSURE_RULE),
        # the suites of --check need depth 3
        (
            st.one_of(DEPTH[0].map(lambda d: ["--depth", d]), st.just(["--depth", 3, "--check"])),
            st.one_of(
                st.tuples(DEPTH[1], st.sampled_from(([], ["--check"]))).map(
                    lambda t: ["--depth", t[0], *t[1]]
                ),
                st.just(["--depth", 2, "--check"]),
            ),
        ),
    ),
    "gk": st.one_of(
        _argv("gk", _flag("--p", P), _flag("--S", (st.integers(1, 3), st.integers(-1, 0))),
              _flag("--R", (st.integers(1, 3), st.integers(-1, 0)))),
        _argv("gk", _flag("--p", P),
              _flag("--tuple", (REPEATING, st.one_of(INVALID_RULE, SHORT_EXPLICIT, EXPLICIT,
                                                   ANALYTIC)))),
    ),
    "nil": _argv(
        "nil", _flag("--p", SMALL_P), _flag("--tuple", CLOSURE_RULE), _flag("--depth", DEPTH),
        _flag("--samples", (st.integers(1, 5), st.one_of(
            st.integers(max_value=-1), st.sampled_from(INVALID_SAMPLES)))),
        _flag("--seed", (st.integers(0, 9), None)),
    ),
    "bounds": _argv("bounds", _flag("--p", P), BOUNDS_RUN),
}
SCAN = _argv(
    "gk", _flag("--p", P), (st.just(["--scan"]), None),
    _flag("--max", (st.integers(1, 16), st.integers(-1, 0))),
)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Saved growth tables for ``fit``: one valid, and one of each broken kind."""
    root = tmp_path_factory.mktemp("tables")
    valid = growth_table(ParameterTuple.constant(2, 1, 1), 300).to_csv()
    header, _, rows = valid.partition("\r\n")
    texts = {
        "valid": valid,
        "empty": "",
        "header-only": header + "\r\n",
        "malformed-row": header + "\r\n" + rows.replace("\r\n", "\r\n1,x,1,1,1,1,\r\n", 1),
    }
    for name, text in texts.items():
        (root / f"{name}.csv").write_text(text, newline="")
    return root


BROKEN_TABLES = ("empty", "header-only", "malformed-row")
INVALID_LEVELS = ("-1", "x")


def _fit(root):
    path = (
        st.just(str(root / "valid.csv")),
        st.one_of(st.just("no-such-table.csv"),
                  st.sampled_from(BROKEN_TABLES).map(lambda n: str(root / f"{n}.csv"))),
    )
    level = (st.sampled_from(("gk", "0", "1", "2")), st.sampled_from(INVALID_LEVELS))
    return _argv("fit", _flag("--in", path), _flag("--level", level))


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.monotonic() - start
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert elapsed < TIME_BOUND, (argv, elapsed)
    assert "Traceback" not in err.getvalue()
    if argv[0] != "fit" and int(argv[2]) not in PRIMES:
        assert code == 2, (argv, code, out.getvalue())


FUZZ = settings(
    max_examples=15,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("command", sorted([*COMMANDS, "fit"]))
@FUZZ
@given(data=st.data())
def test_cli_keeps_exit_code_contract(command, tables, data):
    strategy = _fit(tables) if command == "fit" else COMMANDS[command]
    check_contract(data.draw(strategy, label="argv"))


@FUZZ
@example(["gk", "--p", "0", "--scan", "--max", "3"])
@example(["gk", "--p", "1", "--scan", "--max", "3"])
@example(["gk", "--p", "-3", "--scan", "--max", "3"])
@example(["gk", "--p", "4", "--scan", "--max", "3"])
@given(SCAN)
def test_gk_scan_keeps_exit_code_contract(argv):
    check_contract(argv)


def test_nil_above_sample_cap_is_refused():
    # the invalid --samples pool holds this count, but 15 draws rarely reach it
    argv = ["nil", "--p", "2", "--tuple", "constant:1,1", "--depth", "2",
            "--samples", str(MAX_NIL_SAMPLES + 1), "--seed", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: samples must be in")


# One valid invocation per command form; each refusal below changes one
# argument of it to a fixed invalid value of the pools above, which the
# derandomized draws reach seldom or never.
VALID_ARGV = {
    "growth": ["growth", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "10",
               "--format", "csv"],
    "basis": ["basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "3", "--check"],
    "gk": ["gk", "--p", "2", "--tuple", "constant:1,1"],
    "gk-SR": ["gk", "--p", "2", "--S", "1", "--R", "1"],
    "gk-scan": ["gk", "--p", "2", "--scan", "--max", "3"],
    "nil": ["nil", "--p", "2", "--tuple", "constant:1,1", "--depth", "3", "--samples", "3",
            "--seed", "1"],
    "bounds": ["bounds", "--p", "2", "--tuple", "constant:1,1", "--max-weight", "10"],
    "bounds-analytic": ["bounds", "--p", "2", "--tuple", "kappa:1/2", "--max-weight", "10"],
    "fit": ["fit", "--in", "valid.csv", "--level", "gk"],
}
RULE_FORMS = ("growth", "basis", "gk", "nil", "bounds")
REFUSALS = [
    *((form, "--p", v) for form in VALID_ARGV if form != "fit" for v in NON_PRIME_VALUES),
    *((form, "--tuple", rule) for form in RULE_FORMS for rule in INVALID_RULE_VALUES),
    ("growth", "--format", "xml"),
    *(("growth", "--max-weight", w) for w in (-1, 0)),
    *(("basis", "--depth", d) for d in (-1, 0, 1, 2)),
    *(("nil", "--depth", d) for d in (-1, 0, 1)),
    *(("nil", "--samples", n) for n in (-1, *INVALID_SAMPLES)),
    *(("gk-SR", flag, v) for flag in ("--S", "--R") for v in (-1, 0)),
    *(("gk-scan", "--max", v) for v in (-1, 0)),
    *(("bounds", "--max-weight", w) for w in (-1, 0, 10**6, 10**60)),
    *(("bounds-analytic", "--max-weight", w) for w in (-1, 0)),
    *(("fit", "--level", level) for level in INVALID_LEVELS),
    *(("fit", "--in", f"{name}.csv") for name in ("no-such-table", *BROKEN_TABLES)),
]


def _valid_argv(form, tables):
    argv = list(VALID_ARGV[form])
    if form == "fit":
        argv[argv.index("--in") + 1] = str(tables / "valid.csv")
    return argv


@pytest.mark.parametrize("form", sorted(VALID_ARGV))
def test_cli_valid_forms_pass(form, tables):
    argv = _valid_argv(form, tables)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


@pytest.mark.parametrize(
    "form, flag, value", REFUSALS, ids=[f"{f}{flag}={v}" for f, flag, v in REFUSALS]
)
def test_cli_refuses_each_fixed_invalid_value(form, flag, value, tables):
    argv = _valid_argv(form, tables)
    argv[argv.index(flag) + 1] = str(tables / value if flag == "--in" else value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, (argv, out.getvalue())
    assert "Traceback" not in err.getvalue()
    # argparse prefixes its own refusals with the program and command name
    assert re.search(r"^(cloverlie \w+: )?error: ", err.getvalue(), re.M), err.getvalue()
