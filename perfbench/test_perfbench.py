"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import hashlib
import json
import os
import sys
import time

import pytest

import run
import selfcheck
import tracer


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0, "hot_s": 0.5},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0, "hot_s": 0.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0, "hot_s": 0.0},  # overlaps 1
        {"id": 3, "parent": 0, "start": 8.0, "end": 12.0, "hot_s": 1.0},  # ends after 0
    ]
    selfs = tracer.span_self_times(spans)
    # children cover [1, 6] and [8, 10] of the parent: 7 s; hot calls 0.5 s
    assert selfs[0] == pytest.approx(2.5)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert tracer.union_length([(2, 3), (0, 1), (0.5, 2.5)], 0, 10) == pytest.approx(3.0)
    assert tracer.union_length([], 0, 1) == 0.0


def test_hot_self_time_excludes_nested_wrapped_calls():
    ticks = iter(range(100))
    tr = tracer.Tracer("t", clock=lambda: float(next(ticks)))
    inner = tr.hot("inner", lambda: None)
    outer = tr.hot("outer", lambda: inner())
    command = tr.span("cli.cmd", lambda: outer())
    command()
    spans = tr.finish()
    cmd = spans[1]
    assert cmd["name"] == "cli.cmd" and cmd["parent"] == 0 and cmd["trace"] == "t"
    # clock: cmd starts 1, outer 2..5 (inner 3..4), cmd ends 6
    assert cmd["hot"]["outer"] == [1, 3.0, 2.0]
    assert cmd["hot"]["inner"] == [1, 1.0, 1.0]
    assert tracer.span_self_times(spans)[1] == pytest.approx(2.0)
    assert tracer.call_counts(spans) == {"process": 1, "cli.cmd": 1, "outer": 1, "inner": 1}


def test_oracle_rejects_a_tampered_digest():
    cmd = run.Command("c", ("growth",), out="table.csv")
    stdout = b"wrote 3 rows\n"
    oracle = {
        "seed": run.DEFAULT_SEED,
        "commands": {"c": {"stdout": hashlib.sha256(stdout).hexdigest(), "out": "ab" * 32}},
    }
    assert run.check_output(cmd, run.DEFAULT_SEED, 0, stdout, "ab" * 32, oracle) is None
    assert run.check_output(cmd, 1, 0, stdout, "ab" * 32, oracle) is None  # not seeded
    tampered = {"seed": oracle["seed"], "commands": {"c": dict(oracle["commands"]["c"])}}
    tampered["commands"]["c"]["stdout"] = "0" * 64
    error = run.check_output(cmd, run.DEFAULT_SEED, 0, stdout, "ab" * 32, tampered)
    assert "stdout digest" in error
    assert "table.csv" in run.check_output(cmd, run.DEFAULT_SEED, 0, stdout, "cd" * 32, oracle)
    assert "exit code 1" == run.check_output(cmd, run.DEFAULT_SEED, 1, stdout, "ab" * 32, oracle)


def test_recorded_oracle_covers_every_command():
    oracle = run.load_oracle()
    names = {c.name for w in run.WORKLOADS for c in run.workload_commands(w, oracle["seed"])}
    assert names == set(oracle["commands"])


def test_nil_outputs_at_other_seeds_are_checked_structurally(monkeypatch):
    good = b"sample 0: nil, vanishes at p-power exponent 2\n" \
        b"sample 1: inconclusive (next power would leave trusted zone (40 > 20))\n" \
        b"2 samples: 1 nil, 1 inconclusive, largest exponent 2\n"
    assert run.check_nil_stdout(good, 2) is None
    assert run.check_nil_stdout(good, 3) is not None
    assert run.check_nil_stdout(good.replace(b"1 nil, 1", b"2 nil, 0"), 2) is not None
    monkeypatch.setattr(run, "NIL_SAMPLES", 2)
    cmd = run.Command("nil", ("nil",), seeded=True)
    oracle = {"seed": run.DEFAULT_SEED, "commands": {"nil": {"stdout": "0" * 64}}}
    assert run.check_output(cmd, 7, 0, good, None, oracle) is None
    assert "stdout digest" in run.check_output(cmd, run.DEFAULT_SEED, 0, good, None, oracle)


def test_hang_guard_kills_a_sleeping_child_and_counts_a_failure(monkeypatch):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    monkeypatch.setattr(run, "launcher_argv", lambda side, trace_id, args: sleeper)
    oracle = {"seed": run.DEFAULT_SEED, "commands": {}}
    cmds = [run.Command("sleeper", ()), run.Command("never-started", ())]
    start = time.monotonic()
    one = run.run_pass(cmds, run.DEFAULT_SEED, False, "t", oracle, limit=0.5)
    assert time.monotonic() - start < 10
    assert [r.name for r in one.results] == ["sleeper"]  # the pass stops at a stall
    assert one.results[0].child.timed_out
    assert "killed" in one.results[0].error
    assert one.results[0].child.speed > 0
    assert run.end_to_end_metrics([one])["success_rate"]["value"] == 0.0


def test_times_are_scaled_by_the_speed_measured_while_each_command_ran():
    slow = run.CommandResult("a", run.Child(0, 0.0, 4.0, 1.0, False, 0.5), 1.0, 0, None)
    fast = run.CommandResult("b", run.Child(0, 5.0, 6.0, 1.0, False, 2.0), 0.25, 0, None)
    one = run.Pass(False, [slow, fast])
    assert one.wall_s == pytest.approx(4.0 * 0.5 + 1.0 * 2.0)
    assert one.setup_s == pytest.approx(1.0 * 0.5 + 0.25 * 2.0)
    assert one.elapsed == pytest.approx(6.0)


def test_tracer_counts_match_cprofile():
    counts = selfcheck.compare(
        ("basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "3", "--check")
    )
    assert counts["derivations.bracket"][0] > 0
    assert all(traced == profiled for traced, profiled in counts.values()), counts


def test_benchmark_json_declares_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    child = run.Child(0, 0.0, 1.0, 10.0, False)
    one = run.Pass(False, [run.CommandResult("c", child, 0.5, 0, None)])
    reported = run.end_to_end_metrics([one])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: metric["unit"] for name, metric in reported.items()
    }
