"""Line census: every executable line of ``src/cloverlie`` runs under the tier-1 suite.

Run from the repository root:

    PYTHONPATH=src python tests/line_census.py

It runs the tier-1 pytest command in this process, with a fixed Hypothesis
seed and a ``sys.settrace`` hook that records the lines run in frames of
``src/cloverlie``.  A module's executable lines are the lines of its code
objects (``co_lines``).  Tests that run the CLI in a subprocess are not
traced.  The census exits 1 when the suite fails, when a line that never
ran is missing from ``tests/line_census_allow.txt``, or when an allowed line
now runs: the allowlist can only shrink.

Allowlist entries are keyed by module, function and line text, not by line
number, so edits elsewhere in a module leave them valid.  One entry per
line: ``module | function | line text | reason``.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).absolute().parent.parent
SRC = ROOT / "src" / "cloverlie"
ALLOW = ROOT / "tests" / "line_census_allow.txt"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
              "--hypothesis-seed=0", str(ROOT / "tests")]


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> dotted name of the innermost function or class holding it."""
    out: dict[int, str] = {}

    def walk(code, name):
        for _, _, line in code.co_lines():
            if line is not None:
                out[line] = name
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                inner = const.co_name if name == "<module>" else f"{name}.{const.co_name}"
                walk(const, inner)

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return out


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with args in process; return its exit code and the lines run."""
    prefix = str(SRC) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def _key(module: str, function: str, text: str) -> str:
    return f"{module} | {function} | {text}"


def read_allowlist(path: Path) -> Counter:
    allowed: Counter = Counter()
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            module, function, text, _reason = (part.strip() for part in raw.split(" | ", 3))
            allowed[_key(module, function, text)] += 1
    return allowed


def main() -> int:
    # read before the run, so the keys match the code that ran
    modules = {path: (executable_lines(path), path.read_text().splitlines())
               for path in sorted(SRC.glob("*.py"))}
    code, seen = run_traced(TIER1_ARGS)
    if code != 0:
        print(f"line census: the tier-1 suite exited {code}", file=sys.stderr)
        return 1
    missed: Counter = Counter()
    for path, (lines, text) in modules.items():
        for line, function in sorted(lines.items()):
            if (str(path), line) not in seen:
                missed[_key(path.name, function, text[line - 1].strip())] += 1
    total = sum(len(lines) for lines, _ in modules.values())
    allowed = read_allowlist(ALLOW)
    new, stale = missed - allowed, allowed - missed
    print(f"line census: {total} executable lines, {sum(missed.values())} never ran, "
          f"{sum(allowed.values())} allowed")
    for key in sorted(new.elements()):
        print(f"never ran, not allowed: {key}")
    for key in sorted(stale.elements()):
        print(f"allowed, but ran (remove it from {ALLOW.name}): {key}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
