"""Check the tracer's call counts against cProfile on the same commands.

    python3 perfbench/selfcheck.py

Each command runs twice, in fresh interpreters: once through the traced
launcher and once under cProfile.  For every wrapped function the number
of calls the tracer saw must equal cProfile's count for the same code
object; a difference means a binding was missed.

The reference figures were measured with cProfile on the sources of commit
7bcd54e.  When src/cloverlie holds exactly those sources (SEED_SRC_SHA256)
a traced count that differs from its reference fails the check too, so a
benchmark pointed at the wrong code or inputs shows.  A later change to the
algorithms may legitimately move the figures; on other sources they are
printed for comparison only.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import subprocess
import sys
import tempfile

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

CASES = [
    (
        ("basis", "--p", "3", "--tuple", "constant:1,1", "--depth", "4", "--check"),
        {"derivations.bracket": 921_770, "derivations.render": 981_337,
         "closure.restricted_closure": 2},
    ),
    (
        ("nil", "--p", "2", "--tuple", "constant:1,1", "--depth", "5", "--samples", "2000",
         "--max-terms", "8", "--seed=20260815"),
        {"derivations.p_power": 3_166},
    ),
    (
        ("bounds", "--p", "2", "--tuple", "kappa:1/2", "--max-weight", str(10**2000)),
        {"monomials.count_descriptors": 912},
    ),
]
SEED_COMMIT = "7bcd54e"
SEED_SRC_SHA256 = "b3f320cb80eab044b54069ac444b1acf5fdbecad126d739a4fa54669ec17138f"


def src_sha256() -> str:
    """Digest of every file name and content under src/cloverlie, *.py only."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cloverlie")
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def profile_counts(cli_args) -> dict[str, int]:
    """Calls per wrapped name, counted by cProfile in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cloverlie import cli

    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profiler.runcall(cli.main, list(cli_args))
    calls = {}
    for (filename, line, fname), (_cc, nc, *_rest) in pstats.Stats(profiler).stats.items():
        calls[(filename, line, fname)] = nc
    out: dict[str, int] = {}
    for _kind, name, _owner, _attr, fn in tracer.resolve_targets(tracer.cloverlie_modules()):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = out.get(name, 0) + calls.get(key, 0)
    return out


def _child(args: list[str], tmp: str) -> dict:
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(tmp) as fh:
        return json.load(fh)


def compare(cli_args) -> dict[str, tuple[int, int]]:
    """name -> (traced calls, cProfile calls) for one command."""
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        side = os.path.join(tmp, "side.json")
        traced = tracer.call_counts(
            _child([os.path.join(BENCH, "launch.py"), side, "selfcheck", *cli_args], side)["spans"]
        )
        profiled = _child([os.path.abspath(__file__), "--profile", side, *cli_args], side)
    return {name: (traced.get(name, 0), n) for name, n in profiled.items()}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--profile"]:
        with open(argv[1], "w") as fh:
            json.dump(profile_counts(argv[2:]), fh)
        return 0
    at_seed = src_sha256() == SEED_SRC_SHA256
    print(f"reference counts from commit {SEED_COMMIT}; sources here "
          + ("are the same, so they must match" if at_seed else "differ, so they are informational"))
    bad = 0
    for cli_args, reference in CASES:
        print(" ".join(cli_args)[:100])
        for name, (traced, profiled) in sorted(compare(cli_args).items()):
            ref = reference.get(name)
            ok = traced == profiled and (ref is None or ref == traced or not at_seed)
            bad += not ok
            note = ""
            if ref is not None:
                note = f"  reference {ref:,}" + ("" if ref == traced else " (differs)")
            flag = "ok " if ok else "BAD"
            print(f"  {flag} {name:34} traced {traced:>10,}  cProfile {profiled:>10,}{note}")
    print("counts match" if not bad else f"{bad} counts differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
