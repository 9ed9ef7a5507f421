"""Fuzzing the command line in-process: every invocation keeps the exit-code
contract (0 passed, 1 a check failed, 2 invalid input or out of range),
never lets an exception escape ``main`` and finishes quickly.

Inputs stay small (depth <= 3, at most 5 samples, scan grids up to 16 x 16,
dense tables up to 1,000 rows) but cover invalid primes, degenerate and
oversized tuple entries and checkpoint-sized huge weights.  Each argument
is drawn valid three times out of four, so that many invocations get past
the input checks and do real work.
"""

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloverlie.cli import main

# Seconds one invocation may take; the slowest inputs these strategies can
# draw (basis --check at depth 3) need about 3 s.
TIME_BOUND = 30

PRIMES = (2, 3, 5)


def _mostly(valid, invalid):
    """Draws from ``valid`` three times as often as from ``invalid``."""
    return st.tuples(st.integers(0, 3), valid, invalid).map(
        lambda t: t[2] if t[0] == 0 else t[1]
    )


NON_PRIMES = st.sampled_from((0, 1, -3, 4, 9))
P = _mostly(st.sampled_from(PRIMES), NON_PRIMES)
SMALL_P = _mostly(st.sampled_from((2, 3)), NON_PRIMES)


def _rules(entry, fixed):
    pairs = st.lists(st.tuples(entry, entry), min_size=1, max_size=3)
    joined = pairs.map(lambda ps: ";".join(f"{s},{r}" for s, r in ps))
    return st.one_of(
        st.builds("constant:{},{}".format, entry, entry),
        joined.map("periodic:{}".format),
        joined.map("explicit:{}".format),
        st.sampled_from(fixed),
    )


SPEC = _mostly(
    _rules(
        st.integers(1, 2),
        ("kappa:1/2", "kappa:2/3", "qkappa:1,1", "qkappa:2,1", "qkappa:3,1/2"),
    ),
    _rules(
        st.integers(-1, 2),
        (
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
        ),
    ),
)
DEPTH = _mostly(st.integers(1, 3), st.integers(-1, 0))
WEIGHT = _mostly(st.integers(1, 1000), st.integers(-1, 0))
HUGE_WEIGHT = st.integers(6, 60).map(lambda k: 10**k)


def _argv(command, p, *rest):
    return [command, "--p", str(p), *map(str, rest)]


COMMANDS = {
    "growth": st.builds(
        lambda p, spec, w, fmt: _argv(
            "growth", p, "--tuple", spec, "--max-weight", w, "--format", fmt
        ),
        P, SPEC, WEIGHT, st.sampled_from(("csv", "json")),
    ),
    "basis": st.builds(
        lambda p, spec, depth, check: _argv(
            "basis", p, "--tuple", spec, "--depth", depth, *(["--check"] if check else [])
        ),
        SMALL_P, SPEC, DEPTH, st.booleans(),
    ),
    "gk": st.one_of(
        st.builds(lambda p, S, R: _argv("gk", p, "--S", S, "--R", R),
                  P, st.integers(-1, 3), st.integers(-1, 3)),
        st.builds(lambda p, spec: _argv("gk", p, "--tuple", spec), P, SPEC),
    ),
    "nil": st.builds(
        lambda p, spec, depth, n, seed: _argv(
            "nil", p, "--tuple", spec, "--depth", depth, "--samples", n, "--seed", seed
        ),
        SMALL_P, SPEC, DEPTH, _mostly(st.integers(1, 5), st.integers(-1, 0)),
        st.integers(0, 9),
    ),
    "bounds": st.builds(
        lambda p, spec, w, suite: _argv(
            "bounds", p, "--tuple", spec, "--max-weight", w,
            *([] if suite is None else ["--suite", suite]),
        ),
        P, SPEC, st.one_of(WEIGHT, HUGE_WEIGHT),
        st.sampled_from((None, "period", "quasilinear")),
    ),
    "fit": st.builds(
        lambda level: ["fit", "--in", "no-such-table.csv", "--level", level],
        st.sampled_from(("gk", "0", "-1", "x")),
    ),
}
SCAN = st.builds(
    lambda p, m: _argv("gk", p, "--scan", "--max", m),
    P, _mostly(st.integers(1, 16), st.integers(-1, 0)),
)


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


@pytest.mark.parametrize("command", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_cli_keeps_exit_code_contract(command, data):
    check_contract(data.draw(COMMANDS[command], label="argv"))


@FUZZ
@example(["gk", "--p", "0", "--scan", "--max", "3"])
@example(["gk", "--p", "1", "--scan", "--max", "3"])
@example(["gk", "--p", "-3", "--scan", "--max", "3"])
@example(["gk", "--p", "4", "--scan", "--max", "3"])
@given(SCAN)
def test_gk_scan_keeps_exit_code_contract(argv):
    check_contract(argv)
