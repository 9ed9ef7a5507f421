"""In-process tracer for one cloverlie CLI command, and the layer metrics.

The tracer wraps public functions of the cloverlie modules from outside:
nothing in ``src/`` knows about it.  Coarse functions (a command, a suite,
``restricted_closure``, ``growth_table``, ``count_descriptors``, the
``check_*`` suites, ``gk_density_scan``, table rendering) each record one
span with a name, start, end, parent id and the command's trace id.  Hot
functions (``bracket``, ``p_power``, ``Derivation.apply``/``render``,
``AlgebraElement.derive``/``__mul__``/``render``, ``GradedBasis``
insert/member, ...) run millions of times, so they only add a call count,
an inclusive time and a self time to the innermost open span.

Every binding of a wrapped function is replaced, in every cloverlie
module: ``closure`` holds its own ``bracket`` and ``p_power`` from
``from .derivations import ...``, ``analytics`` its own
``count_descriptors``, ``cli`` its own suite functions.

A span's self time is its duration minus the union of its child spans and
minus the time of hot calls made directly inside it.  A hot call's self
time is its duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import statistics
import time

# (module, attribute path, span name) for functions that get one span per call
SPAN_TARGETS = (
    ("closure", "verify_basis_theorem", "closure.suite.basis"),
    ("closure", "verify_grading", "closure.suite.grading"),
    ("closure", "relation_suite", "closure.suite.relations"),
    ("closure", "sample_nil_chains", "closure.suite.nil"),
    ("closure", "restricted_closure", "closure.restricted_closure"),
    ("monomials", "growth_table", "monomials.growth_table"),
    ("monomials", "count_descriptors", "monomials.count_descriptors"),
    ("monomials", "enumerate_descriptors", "monomials.enumerate_descriptors"),
    ("monomials", "GrowthTable.to_csv", "monomials.table_render"),
    ("monomials", "GrowthTable.to_json", "monomials.table_render"),
    ("analytics", "check_growth_sandwich", "analytics.sandwich"),
    ("analytics", "check_quasilinear_bounds", "analytics.quasilinear"),
    ("analytics", "theta_bounds", "analytics.theta_bounds"),
    ("analytics", "gk_density_scan", "analytics.gk_scan"),
)

# (module, attribute path, name) for per-call hot functions
HOT_TARGETS = (
    ("derivations", "bracket", "derivations.bracket"),
    ("derivations", "p_power", "derivations.p_power"),
    ("derivations", "Derivation.apply", "derivations.apply"),
    ("derivations", "Derivation.render", "derivations.render"),
    ("dpalgebra", "AlgebraElement.derive", "dpalgebra.derive"),
    ("dpalgebra", "AlgebraElement.__mul__", "dpalgebra.mul"),
    ("dpalgebra", "AlgebraElement.render", "dpalgebra.render"),
    ("closure", "GradedBasis.insert", "closure.insert"),
    ("closure", "GradedBasis.member", "closure.member"),
    ("closure", "VerificationReport.add", "closure.report.add"),
    ("monomials", "realize", "monomials.realize"),
    ("params", "ParameterTuple.pivot_weight", "params.pivot_weight"),
    ("params", "ParameterTuple.materialize", "params.materialize"),
)

MODULES = ("cli", "params", "dpalgebra", "derivations", "monomials", "closure", "analytics")


def cloverlie_modules() -> dict:
    """The cloverlie package and its modules, by short name."""
    import importlib

    modules = {name: importlib.import_module(f"cloverlie.{name}") for name in MODULES}
    modules["cloverlie"] = importlib.import_module("cloverlie")
    return modules


def resolve_targets(modules: dict):
    """(kind, name, owner, attribute, function) for every wrapped target."""
    for kind, targets in (("span", SPAN_TARGETS), ("hot", HOT_TARGETS)):
        for mod_name, path, name in targets:
            owner = modules[mod_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            yield kind, name, owner, attr, getattr(owner, attr)


def _note_terms(args, kwargs, result, notes):
    notes["terms"] = notes.get("terms", 0) + result.term_count()


def _note_dim(args, kwargs, result, notes):
    notes["dim"] = notes.get("dim", 0) + result.dimension()


def _note_rows(args, kwargs, result, notes):
    notes["rows"] = notes.get("rows", 0) + len(result.rows)


def _note_accepted(args, kwargs, result, notes):
    if result:
        notes["accepted"] = notes.get("accepted", 0) + 1


def _note_record(args, kwargs, result, notes):
    notes["records"] = notes.get("records", 0) + 1


NOTES = {
    "derivations.bracket": _note_terms,
    "derivations.p_power": _note_terms,
    "closure.restricted_closure": _note_dim,
    "monomials.growth_table": _note_rows,
    "closure.insert": _note_accepted,
    "closure.report.add": _note_record,
}


class Tracer:
    """Spans and hot-call aggregates of one process, kept in memory."""

    def __init__(self, trace_id: str, clock=time.monotonic):
        self.trace_id = trace_id
        self.clock = clock
        root = self._new_span(0, "process", None)
        root["start"] = clock()
        self.spans = [root]
        self._open = [root]
        # one frame per active wrapped call: [seconds covered by children, span or None]
        self._frames = [[0.0, root]]

    def _new_span(self, span_id, name, parent):
        return {
            "id": span_id,
            "parent": parent,
            "trace": self.trace_id,
            "name": name,
            "start": None,
            "end": None,
            "hot_s": 0.0,
            "hot": {},
            "notes": {},
        }

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        spans, opened, frames, clock = self.spans, self._open, self._frames, self.clock
        note = NOTES.get(name)
        new_span = self._new_span

        def traced(*args, **kwargs):
            rec = new_span(len(spans), name, opened[-1]["id"])
            spans.append(rec)
            opened.append(rec)
            frame = [0.0, rec]
            frames.append(frame)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = end = clock()
                frames.pop()
                opened.pop()
                rec["hot_s"] = frame[0]
                if frames[-1][1] is None:  # a span inside a hot call
                    frames[-1][0] += end - rec["start"]
            if note is not None:
                note(args, kwargs, result, rec["notes"])
            return result

        return traced

    def hot(self, name: str, fn):
        """Wrap fn so that each call adds to counters of the innermost span."""
        opened, frames, clock = self._open, self._frames, self.clock
        note = NOTES.get(name)

        def counted(*args, **kwargs):
            frame = [0.0, None]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                hot = opened[-1]["hot"]
                agg = hot.get(name)
                if agg is None:
                    agg = hot[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if note is not None:
                note(args, kwargs, result, opened[-1]["notes"])
            return result

        return counted

    def install(self, modules: dict) -> None:
        """Wrap every target, in every module that binds it."""
        for kind, name, owner, attr, fn in resolve_targets(modules):
            wrapped = getattr(self, kind)(name, fn)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules.values():  # rebind every `from .x import fn`
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def finish(self) -> list[dict]:
        self.spans[0]["end"] = self.clock()
        return self.spans


# -- self time ---------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - union_length(children.get(s["id"], ()), s["start"], s["end"])
        - s["hot_s"]
        for s in spans
    }


# -- layer metrics -----------------------------------------------------------

# name -> unit, for every per-layer metric a traced run reports
LAYER_METRICS = {
    "derivations.bracket.calls": "count",
    "derivations.bracket.self_s": "s",
    "derivations.terms_out": "count",
    "dpalgebra.derive.calls": "count",
    "dpalgebra.mul.calls": "count",
    "dpalgebra.self_s": "s",
    "derivations.p_power.calls": "count",
    "derivations.p_power.self_s": "s",
    "derivations.apply.calls": "count",
    "derivations.render.calls": "count",
    "derivations.render_s": "s",
    "dpalgebra.render.calls": "count",
    "closure.witness.renders_per_record": "ratio",
    "closure.restricted_closure.calls": "count",
    "closure.restricted_closure.s": "s",
    "closure.closure.brackets": "count",
    "closure.closure.dim": "count",
    "closure.echelon.useful_ratio": "ratio",
    "closure.echelon.accepted": "count",
    "closure.echelon.inserts": "count",
    "closure.member.calls": "count",
    "closure.suite_s.basis": "s",
    "closure.suite_s.grading": "s",
    "closure.suite_s.relations": "s",
    "closure.suite_s.nil": "s",
    "closure.report.records": "count",
    "monomials.count_descriptors.calls": "count",
    "monomials.count_descriptors.s": "s",
    "params.pivot_weight.calls": "count",
    "params.materialize.calls": "count",
    "params.self_s": "s",
    "monomials.growth_table.self_s": "s",
    "monomials.table_render_s": "s",
    "monomials.rows_out": "count",
    "monomials.enumerate_descriptors.s": "s",
    "monomials.realize.calls": "count",
    "analytics.sandwich.s": "s",
    "analytics.quasilinear.self_s": "s",
    "analytics.theta_bounds.s": "s",
    "analytics.gk_scan.s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def command_metrics(spans: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced command, but for ratios, stdout bytes and overhead."""
    selfs = span_self_times(spans)
    by_id = {s["id"]: s for s in spans}
    hot: dict[str, list] = {}
    notes: dict[str, float] = {}
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        for key, (n, total, own) in s["hot"].items():
            agg = hot.setdefault(key, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += own
        for key, value in s["notes"].items():
            notes[key] = notes.get(key, 0) + value
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:  # outermost span of its name: no double counting
            incl[name] = incl.get(name, 0.0) + s["end"] - s["start"]

    def h(name, i):
        return hot.get(name, (0, 0.0, 0.0))[i]

    def hot_self(prefix):
        return sum(agg[2] for key, agg in hot.items() if key.startswith(prefix))

    closure_brackets = sum(
        s["hot"].get("derivations.bracket", (0,))[0]
        for s in spans
        if s["name"] == "closure.restricted_closure"
    )
    return {
        "derivations.bracket.calls": h("derivations.bracket", 0),
        "derivations.bracket.self_s": h("derivations.bracket", 2),
        "derivations.terms_out": notes.get("terms", 0),
        "dpalgebra.derive.calls": h("dpalgebra.derive", 0),
        "dpalgebra.mul.calls": h("dpalgebra.mul", 0),
        "dpalgebra.self_s": hot_self("dpalgebra."),
        "derivations.p_power.calls": h("derivations.p_power", 0),
        "derivations.p_power.self_s": h("derivations.p_power", 2),
        "derivations.apply.calls": h("derivations.apply", 0),
        "derivations.render.calls": h("derivations.render", 0),
        "derivations.render_s": h("derivations.render", 1),
        "dpalgebra.render.calls": h("dpalgebra.render", 0),
        "closure.restricted_closure.calls": calls.get("closure.restricted_closure", 0),
        "closure.restricted_closure.s": incl.get("closure.restricted_closure", 0.0),
        "closure.closure.brackets": closure_brackets,
        "closure.closure.dim": notes.get("dim", 0),
        "closure.echelon.accepted": notes.get("accepted", 0),
        "closure.echelon.inserts": h("closure.insert", 0),
        "closure.member.calls": h("closure.member", 0),
        "closure.suite_s.basis": incl.get("closure.suite.basis", 0.0),
        "closure.suite_s.grading": incl.get("closure.suite.grading", 0.0),
        "closure.suite_s.relations": incl.get("closure.suite.relations", 0.0),
        "closure.suite_s.nil": incl.get("closure.suite.nil", 0.0),
        "closure.report.records": notes.get("records", 0),
        "monomials.count_descriptors.calls": calls.get("monomials.count_descriptors", 0),
        "monomials.count_descriptors.s": incl.get("monomials.count_descriptors", 0.0),
        "params.pivot_weight.calls": h("params.pivot_weight", 0),
        "params.materialize.calls": h("params.materialize", 0),
        "params.self_s": hot_self("params."),
        "monomials.growth_table.self_s": self_s.get("monomials.growth_table", 0.0),
        "monomials.table_render_s": incl.get("monomials.table_render", 0.0),
        "monomials.rows_out": notes.get("rows", 0),
        "monomials.enumerate_descriptors.s": incl.get("monomials.enumerate_descriptors", 0.0),
        "monomials.realize.calls": h("monomials.realize", 0),
        "analytics.sandwich.s": incl.get("analytics.sandwich", 0.0),
        "analytics.quasilinear.self_s": self_s.get("analytics.quasilinear", 0.0),
        "analytics.theta_bounds.s": incl.get("analytics.theta_bounds", 0.0),
        "analytics.gk_scan.s": incl.get("analytics.gk_scan", 0.0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
    }


def call_counts(spans: list[dict]) -> dict[str, int]:
    """Calls per wrapped name: span counts plus hot-call counts."""
    out: dict[str, int] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0) + 1
        for key, agg in s["hot"].items():
            out[key] = out.get(key, 0) + agg[0]
    return out


def pass_metrics(commands: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced pass: per-command metrics summed.

    Each command is {"spans": [...], "stdout_bytes": int}.  The ratios are
    taken from the summed numerators and bases.
    """
    total: dict[str, float] = {name: 0 for name in LAYER_METRICS if name != "trace.overhead_s"}
    for cmd in commands:
        for key, value in command_metrics(cmd["spans"]).items():
            total[key] = total.get(key, 0) + value
        total["cli.stdout_bytes"] += cmd["stdout_bytes"]
    records = total["closure.report.records"]
    inserts = total["closure.echelon.inserts"]
    total["closure.witness.renders_per_record"] = (
        records and total["derivations.render.calls"] / records
    )
    total["closure.echelon.useful_ratio"] = inserts and total["closure.echelon.accepted"] / inserts
    return total


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over passes; counts keep a value that occurred."""
    out = {}
    for key in passes[0]:
        integral = LAYER_METRICS.get(key) in ("count", "bytes")
        median = statistics.median_low if integral else statistics.median
        out[key] = median(p[key] for p in passes)
    return out
