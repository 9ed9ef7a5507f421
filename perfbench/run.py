"""End-to-end benchmark of the cloverlie command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of CLI commands.  The load is a closed loop
with one client: each command runs in a fresh interpreter (cold module
caches, as for a user), one child process at a time, and starts only after
the previous one exited.  One run of the list is a pass; passes repeat
while the time budget, warm-up included, allows another pass PASS_MARGIN
times as long as the longest one so far, and timings are medians over
passes.

The host's CPU speed drifts by up to 1.7x within seconds, independently on
each vCPU.  So the benchmark pins itself and its children to one CPU and,
while a command runs, times short bursts of a fixed pure-Python calibration
loop on that CPU in its own CPU time.  A command's times are multiplied by
the speed the bursts measured (REFERENCE_RATE loops per CPU second is speed
1): reported timings are seconds at reference speed.  The bursts take about
SAMPLE_CPU_S / SAMPLE_EVERY_S of the CPU from the command, on every run
alike.  Raw times and speeds are in the provenance.

Every command's exit code and output are checked: against the sha256
digests in oracle.json, or, for seed-dependent commands at another seed
than the recorded one, structurally.  A command that fails, mismatches or
exceeds COMMAND_LIMIT_S (it is killed) counts as failed.

With --trace 1 the passes alternate untraced and traced; the traced ones
give the per-layer metrics and the difference of the two pass medians is
the tracing overhead.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Provenance and raw samples go
to the line before it and to .perfbench/results/; traced spans go to
.perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
LAUNCH = os.path.join(BENCH, "launch.py")
ORACLE = os.path.join(BENCH, "oracle.json")
WORK = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 20260815
COMMAND_LIMIT_S = 60.0
NIL_SAMPLES = 2000
# One pass may run this much longer than the longest before it: raw pass
# times within one run differ by up to a quarter on a shared 2-vCPU host.
PASS_MARGIN = 1.25
SAMPLE_EVERY_S = 0.05
SAMPLE_CPU_S = 0.002
# Calibration loops per CPU second that count as speed 1: about the median
# on a 2-vCPU x86-64 VM.  A constant, so that a faster program reads lower.
REFERENCE_RATE = 50_000.0


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    out: str | None = None  # file the command writes, relative to the root
    seeded: bool = False  # output depends on the workload seed


def workload_commands(workload: str, seed: int) -> list[Command]:
    const = ("--tuple", "constant:1,1")
    if workload == "verify":
        return [
            Command("basis-p2-d5", ("basis", "--p", "2", *const, "--depth", "5", "--check")),
            Command("basis-p3-d3", ("basis", "--p", "3", *const, "--depth", "3", "--check")),
        ]
    if workload == "nil-chains":
        samples = ("--samples", str(NIL_SAMPLES), f"--seed={seed}")
        return [
            Command(
                "nil-p2-d5",
                ("nil", "--p", "2", *const, "--depth", "5", *samples, "--max-terms", "8"),
                seeded=True,
            ),
            Command(
                "nil-p3-d3", ("nil", "--p", "3", *const, "--depth", "3", *samples), seeded=True
            ),
        ]
    if workload == "counting":
        csv_out = ".perfbench/work/growth-p2.csv"
        json_out = ".perfbench/work/growth-p3.json"
        return [
            Command(
                "growth-p2-csv",
                ("growth", "--p", "2", *const, "--max-weight", "200000", "--out", csv_out),
                out=csv_out,
            ),
            Command(
                "growth-p3-json",
                ("growth", "--p", "3", *const, "--max-weight", "200000",
                 "--format", "json", "--out", json_out),
                out=json_out,
            ),
            Command(
                "bounds-periodic",
                ("bounds", "--p", "2", "--tuple", "periodic:1,1;2,1", "--max-weight", "200000"),
            ),
            Command(
                "bounds-kappa",
                ("bounds", "--p", "2", "--tuple", "kappa:1/2", "--max-weight", str(10**2000)),
            ),
            Command("gk-scan", ("gk", "--scan", "--p", "2", "--max", "64")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "nil-chains", "counting")
WARMUP = ("gk", "--p", "2", "--S", "1", "--R", "1")


# -- host speed ------------------------------------------------------------------


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kind the CLI does: tuple keys, dicts, mod p."""
    acc: dict = {}
    for i in range(8):
        for j in range(8):
            key = (i % 5, j, i * j % 7)
            acc[key] = (acc.get(key, 0) + i * j) % 3
    return len(acc)


@dataclass
class SpeedMeter:
    """Calibration loops run and the CPU time they took, over all bursts."""

    loops: int = 0
    cpu_s: float = 0.0

    def burst(self, cpu_s: float = SAMPLE_CPU_S) -> None:
        start = time.thread_time()
        while True:
            _calibration_loop()
            self.loops += 1
            used = time.thread_time() - start
            if used >= cpu_s:
                self.cpu_s += used
                return

    @property
    def speed(self) -> float:
        return self.loops / self.cpu_s / REFERENCE_RATE


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to the highest allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- one child process ---------------------------------------------------------


@dataclass
class Child:
    """One finished (or killed) child process."""

    rc: int
    spawn: float
    exit: float
    rss_mib: float
    timed_out: bool
    speed: float = 1.0  # host speed measured while it ran


def _wait_measuring_speed(pid: int, limit: float) -> tuple[bool, float]:
    """Wait up to limit seconds for pid to exit, running a calibration burst
    every SAMPLE_EVERY_S meanwhile; returns (exited, speed)."""
    meter = SpeedMeter()
    deadline = time.monotonic() + limit
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while True:
            meter.burst()
            wait = min(SAMPLE_EVERY_S, deadline - time.monotonic())
            if poller.poll(max(0, int(wait * 1000))):
                return True, meter.speed
            if time.monotonic() >= deadline:
                return False, meter.speed
    finally:
        os.close(fd)


def run_child(argv: list[str], limit: float, stdout_path: str, stderr_path: str) -> Child:
    """Run argv from the root; kill it after limit seconds."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    try:
        exited, speed = _wait_measuring_speed(proc.pid, limit)
        timed_out = not exited
        if timed_out:
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, spawn, end, usage.ru_maxrss / 1024, timed_out, speed)


# -- output checks -------------------------------------------------------------


def _sha256_file(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


_NIL_LINE = re.compile(r"sample (\d+): (nil, vanishes at p-power exponent \d+|inconclusive \(.*\))")
_NIL_SUMMARY = re.compile(r"(\d+) samples: (\d+) nil, (\d+) inconclusive, largest exponent \d+")


def check_nil_stdout(stdout: bytes, samples: int) -> str | None:
    """Structural check of `cloverlie nil` output; None when it holds."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if len(lines) != samples + 1:
        return f"{len(lines)} lines, expected {samples + 1}"
    nil = 0
    for i, line in enumerate(lines[:-1]):
        m = _NIL_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != i:
            return f"bad sample line {i}: {line[:80]!r}"
        nil += m.group(2).startswith("nil")
    m = _NIL_SUMMARY.fullmatch(lines[-1])
    if m is None:
        return f"bad summary line: {lines[-1][:80]!r}"
    total, n_nil, n_inc = (int(g) for g in m.groups())
    if total != samples or n_nil != nil or n_nil + n_inc != samples:
        return f"summary {lines[-1]!r} disagrees with {samples} samples, {nil} nil"
    return None


def check_output(
    cmd: Command, seed: int, rc: int, stdout: bytes, out_digest: str | None, oracle: dict
) -> str | None:
    """Why the command's result is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    if cmd.seeded and seed != oracle["seed"]:
        return check_nil_stdout(stdout, NIL_SAMPLES)
    want = oracle["commands"].get(cmd.name)
    if want is None:
        return "no recorded digest"
    if hashlib.sha256(stdout).hexdigest() != want["stdout"]:
        return "stdout digest differs from the oracle"
    if cmd.out is not None and out_digest != want["out"]:
        return f"digest of {cmd.out} differs from the oracle"
    return None


# -- passes ----------------------------------------------------------------------


@dataclass
class CommandResult:
    name: str
    child: Child
    setup_s: float | None
    stdout_bytes: int
    error: str | None
    spans: list = field(default_factory=list)
    versions: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.child.exit - self.child.spawn


@dataclass
class Pass:
    traced: bool
    results: list[CommandResult]

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.results)

    @property
    def wall_s(self) -> float:
        return sum(r.seconds * r.child.speed for r in self.results)

    @property
    def setup_s(self) -> float:
        return sum((r.setup_s or 0.0) * r.child.speed for r in self.results)

    @property
    def elapsed(self) -> float:
        """Raw seconds from the first spawn to the last exit."""
        return self.results[-1].child.exit - self.results[0].child.spawn

    @property
    def peak_rss_mib(self) -> float:
        return max(r.child.rss_mib for r in self.results)


def _work(name: str) -> str:
    return os.path.join(WORK, "work", name)


def launcher_argv(side: str, trace_id: str, args) -> list[str]:
    return [sys.executable, LAUNCH, side, trace_id, *args]


def run_command(cmd: Command, trace_id: str, limit: float = COMMAND_LIMIT_S):
    """Run one command through the launcher; returns (child, stdout, side)."""
    os.makedirs(_work(""), exist_ok=True)
    side_path, out_path, err_path = _work("side.json"), _work("stdout"), _work("stderr")
    stale = [side_path] + ([os.path.join(ROOT, cmd.out)] if cmd.out else [])
    for path in stale:
        if os.path.exists(path):
            os.remove(path)
    child = run_child(launcher_argv(side_path, trace_id, cmd.args), limit, out_path, err_path)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    side = None
    if os.path.isfile(side_path):
        with open(side_path) as fh:
            side = json.load(fh)
    return child, stdout, side


def run_pass(
    cmds: list[Command], seed: int, traced: bool, tag: str, oracle: dict,
    limit: float = COMMAND_LIMIT_S,
) -> Pass:
    results = []
    src = os.path.join(ROOT, "src", "cloverlie") + os.sep
    for i, cmd in enumerate(cmds):
        trace_id = f"{tag}.{i}.{cmd.name}" if traced else "-"
        child, stdout, side = run_command(cmd, trace_id, limit)
        if child.timed_out:
            error = f"killed after {limit:g} s"
        elif side is None or side["setup_end"] is None:
            error = f"exit code {child.rc} before the command line was parsed"
        elif not side["cloverlie"].startswith(src):
            error = f"ran {side['cloverlie']}, not this checkout's package"
        else:
            out_digest = _sha256_file(os.path.join(ROOT, cmd.out)) if cmd.out else None
            error = check_output(cmd, seed, child.rc, stdout, out_digest, oracle)
        setup = side["setup_end"] - child.spawn if side and side["setup_end"] else None
        versions = {k: side[k] for k in ("numpy", "mpmath")} if side else {}
        results.append(
            CommandResult(cmd.name, child, setup, len(stdout), error,
                          (side or {}).get("spans", []), versions)
        )
        if child.timed_out:
            break  # one stall must not hold up the run
    return Pass(traced, results)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, oracle: dict) -> list[Pass]:
    """Passes while the budget allows; with trace, alternately untraced and traced."""
    cmds = workload_commands(workload, seed)
    start = time.monotonic()
    warm, _stdout, _side = run_command(Command("warmup", WARMUP), "-")
    if warm.rc != 0:
        raise RuntimeError(f"warm-up command failed with exit code {warm.rc}")
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(cmds, seed, traced, f"{workload}.{len(passes)}", oracle))
        if any(r.child.timed_out for r in passes[-1].results):
            break
        next_traced = trace and len(passes) % 2 == 1
        same = [p.elapsed for p in passes if p.traced == next_traced]
        if len(passes) >= (2 if trace else 1) and (
            time.monotonic() - start + PASS_MARGIN * max(same) > seconds
        ):
            break
    return passes


# -- metrics and provenance -------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes: list[Pass]) -> dict:
    timed = [p for p in passes if p.ok and not p.traced] or [p for p in passes if not p.traced]
    results = [r for p in passes for r in p.results]
    failed = sum(r.error is not None for r in results)
    return {
        "wall_s": _metric(statistics.median(p.wall_s for p in timed), "s"),
        "setup_s": _metric(statistics.median(p.setup_s for p in timed), "s"),
        "peak_rss_mib": _metric(statistics.median(p.peak_rss_mib for p in timed), "MiB"),
        "success_rate": _metric((len(results) - failed) / len(results), "ratio"),
    }


def layer_metrics(passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [
        tracer.pass_metrics([{"spans": r.spans, "stdout_bytes": r.stdout_bytes} for r in p.results])
        for p in traced
    ] or [tracer.pass_metrics([])]  # a stall ended the run before a traced pass
    values = tracer.median_metrics(per_pass)
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
        if traced
        else 0.0
    )
    return {name: _metric(values[name], unit) for name, unit in tracer.LAYER_METRICS.items()}


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(
    workload: str, seed: int, seconds: float, trace: bool, cpu: int, passes: list[Pass]
) -> dict:
    versions = next((r.versions for p in passes for r in p.results if r.versions), {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "mpmath": versions.get("mpmath"),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "reference_rate": REFERENCE_RATE,
        "load": "closed loop, 1 client, 1 child process at a time",
        "command_limit_s": COMMAND_LIMIT_S,
        "passes": [
            {
                "traced": p.traced,
                "elapsed": p.elapsed,
                "wall_s": p.wall_s,
                "setup_s": p.setup_s,
                "peak_rss_mib": p.peak_rss_mib,
                "commands": [
                    {
                        "name": r.name,
                        "rc": r.child.rc,
                        "seconds": r.seconds,
                        "speed": r.child.speed,
                        "setup_s": r.setup_s,
                        "rss_mib": r.child.rss_mib,
                        "stdout_bytes": r.stdout_bytes,
                        "error": r.error,
                    }
                    for r in p.results
                ],
            }
            for p in passes
        ],
    }


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_oracle() -> dict:
    with open(ORACLE) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cloverlie", "cli.py")):
        print(f"error: no cloverlie sources under {ROOT}/src", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    os.makedirs(os.path.join(WORK, "work"), exist_ok=True)
    try:
        trace = bool(args.trace)
        passes = run_workload(args.workload, args.seed, args.seconds, trace, load_oracle())
    finally:
        shutil.rmtree(os.path.join(WORK, "work"), ignore_errors=True)

    results = [r for p in passes for r in p.results]
    failed = sum(r.error is not None for r in results)
    metrics = layer_metrics(passes) if trace else end_to_end_metrics(passes)
    prov = provenance(args.workload, args.seed, args.seconds, trace, cpu, passes)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_json(os.path.join(WORK, "results", f"{stem}.json"), {**prov, "metrics": metrics})
    if trace:
        spans = [s for r in results for s in r.spans]
        _write_json(os.path.join(WORK, "traces", f"{stem}.json"), spans)
    for r in results:
        if r.error is not None:
            print(f"FAILED {r.name}: {r.error}", file=sys.stderr)
    print(json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
