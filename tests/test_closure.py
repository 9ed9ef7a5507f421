"""Bracket/power closure: basis dimensions, gradings, nil chains, recursion."""

import contextlib
import gc
import hashlib
import json
import random
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import (
    ContextMismatchError,
    Derivation,
    DpContext,
    GrowthTable,
    MonomialDescriptor,
    ParameterTuple,
    count_descriptors,
    nil_index,
    p_power,
    pivot,
    relation_suite,
    restricted_closure,
    sample_nil_chains,
    self_similarity_decompose,
    verify_basis_theorem,
    verify_grading,
    VerificationReport,
    check_growth_sandwich,
    growth_table,
)
from cloverlie import closure, derivations
from cloverlie.cli import main
from cloverlie.closure import CheckRecord, GradedBasis, _standard_closure, _standard_generators
from cloverlie.coordinates import StructureConstants
from cloverlie.derivations import pivot_power

TUP2 = ParameterTuple.constant(2, 1, 1)
TUP3 = ParameterTuple.constant(3, 1, 1)


def closure_at(tup, depth):
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    return ctx, restricted_closure(_standard_generators(ctx), cap)


# ---------------------------------------------------------------------------
# dimensions of the closure match the monomial counts


def test_closure_dimensions_smallest_rule():
    _, basis = closure_at(TUP2, 4)
    assert basis.dimension() == 53
    dims = basis.dims_by_weight()
    counted_prev = 0
    for m in range(1, 10):
        counted = sum(count_descriptors(TUP2, m).values())
        assert dims.get(m, 0) == counted - counted_prev
        counted_prev = counted


def test_closure_dimension_deeper():
    _, basis = closure_at(TUP2, 5)
    assert basis.dimension() == 318
    assert basis.dimension() == sum(count_descriptors(TUP2, 27).values())


def test_closure_rejects_cap_beyond_zone():
    ctx = DpContext(TUP2, 4)
    with pytest.raises(ValueError, match="outside trusted zone"):
        restricted_closure(_standard_generators(ctx), 100)


def test_basis_theorem_reports():
    rep2 = verify_basis_theorem(TUP2, 4)
    assert rep2.passed
    assert rep2.counts()["pass"] >= 600
    rep3 = verify_basis_theorem(TUP3, 3)
    assert rep3.passed
    assert not rep3.failures()


def test_inhomogeneous_realization_is_a_fail(monkeypatch):
    # a broken closed form that mixes two multidegrees is reported as failed
    # checks with both multidegrees in the witness, not raised
    realize = closure.realize

    def mixed(d, ctx):
        D = realize(d, ctx)
        return D + pivot(ctx, "v", 1) if d.length == 1 else D

    monkeypatch.setattr(closure, "realize", mixed)
    rep = verify_basis_theorem(TUP2, 4)
    fails = [r for r in rep.failures() if r.check_id == "realize-multidegree"]
    assert any(r.witness.endswith(" + (2, 1, 0)") for r in fails)
    assert all(r.status == "pass" for r in rep.records if r.check_id.startswith("dimension"))


def test_independence_sees_dependence_across_multidegrees(monkeypatch):
    # every power_w descriptor realized as the power_v element of length 1:
    # the copies sit at other predicted multidegrees than the original, so
    # an independence check split by multidegree would miss them
    realize = closure.realize
    power_v = MonomialDescriptor("power_v", 1, (1,))

    def dup(d, ctx):
        return realize(power_v, ctx) if d.family == "power_w" else realize(d, ctx)

    monkeypatch.setattr(closure, "realize", dup)
    rep = verify_basis_theorem(TUP2, 4)
    independence = [r for r in rep.records if r.check_id == "realize-independence"]
    assert independence and all(r.status == "fail" for r in independence)


def test_membership_fault_fails_every_membership_check(monkeypatch, capsys):
    # GradedBasis.member is the one membership test: when it answers False
    # for everything, every check that reads it fails, and so do the CLI
    # check and the nil index; the shared closure is built before the patch
    ctx = _standard_closure(TUP2, 4).ctx
    monkeypatch.setattr(closure.GradedBasis, "member", lambda self, parts: False)
    failed = {
        r.check_id
        for rep in (verify_basis_theorem(TUP2, 4), verify_grading(TUP2, 4))
        for r in rep.failures()
    }
    assert failed >= {
        "realize-membership", "subalgebra-first", "subalgebra-first-power",
        "ideal-second", "ideal-second-power", "bracket-grading", "power-grading",
    }
    argv = ["basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "4", "--check"]
    assert main(argv) == 1
    assert "    witness: " in capsys.readouterr().out
    with pytest.raises(ValueError, match="element outside algebra"):
        nil_index(pivot(ctx, "v", 0), _standard_closure(TUP2, 4))


def test_grading_reports():
    rep = verify_grading(TUP2, 4)
    assert rep.passed
    assert rep.counts()["pass"] >= 400
    assert verify_grading(TUP3, 3).passed


def test_relation_suite_constant_and_periodic():
    assert relation_suite(TUP2, 4).passed
    assert relation_suite(TUP3, 3).passed
    assert relation_suite(ParameterTuple.periodic(2, [(1, 1), (2, 1)]), 3).passed


def test_zero_p_power_fails_every_power_check(monkeypatch):
    # the ladder's powers are the only p-powers the suite takes: the top
    # power and the regeneration brackets read them, so all three fail
    def zero(D):
        return Derivation.zero(D.ctx)

    monkeypatch.setattr(derivations, "p_power", zero)
    monkeypatch.setattr(closure, "p_power", zero)
    failed = {r.check_id for r in relation_suite(TUP2, 4).failures()}
    assert failed == {"power-ladder", "power-top", "regenerate-next"}


def test_report_serialization():
    rep = verify_grading(TUP2, 3)
    lines = rep.to_json_lines().strip().splitlines()
    assert len(lines) == len(rep.records)
    first = json.loads(lines[0])
    assert {"check", "status"} <= set(first)
    assert "pass" in rep.summary()


def test_witness_rendered_only_on_failure():
    def boom():
        raise AssertionError("witness rendered for a passing check")

    rep = VerificationReport(suite="demo")
    rep.check("holds", True, witness=boom, i=0)
    rep.check("breaks", False, witness=lambda: "lhs=1 rhs=2", i=1)
    assert [r.witness for r in rep.records] == [None, "lhs=1 rhs=2"]
    lines = [json.loads(line) for line in rep.to_json_lines().splitlines()]
    assert [line["witness"] for line in lines] == [None, "lhs=1 rhs=2"]
    assert "    witness: lhs=1 rhs=2" in rep.summary().splitlines()


def test_check_record_contract(monkeypatch):
    rep = VerificationReport(suite="demo")
    rep.check("breaks", False, witness=lambda: "lhs=1 rhs=2", k=3, i=1)
    rec = rep.records[0]
    assert type(rec)._fields == ("suite", "check_id", "params", "status", "witness")
    assert tuple(rec) == ("demo", "breaks", (("i", 1), ("k", 3)), "fail", "lhs=1 rhs=2")
    with pytest.raises(AttributeError):
        rec.status = "pass"
    assert hash(rec) == hash(CheckRecord(*rec))
    assert rec.to_json() == (
        '{"check": "breaks", "params": {"i": 1, "k": 3}, "status": "fail", '
        '"suite": "demo", "witness": "lhs=1 rhs=2"}'
    )

    # a passing ladder segment is one add_range call; only the rows of a
    # failing segment go through check, and each check through add
    calls = {"add": 0, "check": 0, "add_range": 0}

    def count_calls(name):
        method = getattr(VerificationReport, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(VerificationReport, name, counted)

    for name in calls:
        count_calls(name)
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])  # mu = 15
    table = growth_table(tup, 300)  # segments m = 1, 2..15, 16..225, 226..300
    rep = check_growth_sandwich(tup, table)
    assert len(rep.records) == 600
    assert calls == {"add": 0, "check": 0, "add_range": 4}

    calls.update(dict.fromkeys(calls, 0))
    totals = list(table.totals)
    totals[19] = -1  # m = 20 fails the lower bound of segment 16..225
    cols = (table.ms, table.first, table.second, table.power_first, table.power_second, totals)
    rep = check_growth_sandwich(tup, GrowthTable._of_columns(2, tup.spec, cols))
    assert [dict(r.params) for r in rep.failures()] == [{"m": 20, "n": 2}]
    assert len(rep.records) == 600
    assert calls == {"add": 2 * 210, "check": 2 * 210, "add_range": 3}


class _ListReport:
    """The report as one list of CheckRecords, kept as the oracle of the
    column-stored VerificationReport."""

    def __init__(self, suite):
        self.suite = suite
        self.records = []

    def add(self, check_id, status, witness=None, **params):
        self.records.append(
            CheckRecord(self.suite, check_id, tuple(sorted(params.items())), status, witness)
        )

    def check(self, check_id, ok, witness=str, **params):
        self.add(check_id, "pass" if ok else "fail", None if ok else witness(), **params)

    def add_range(self, check_ids, ms, **params):
        for m in ms:
            for check_id in check_ids:
                self.add(check_id, "pass", m=m, **params)

    def merge(self, other, prefix=""):
        self.records += [
            r._replace(suite=self.suite, check_id=prefix + r.check_id) for r in other.records
        ]

    @property
    def passed(self):
        return all(r.status != "fail" for r in self.records)

    def counts(self):
        out = {"pass": 0, "fail": 0, "outside-trusted-zone": 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def failures(self):
        return [r for r in self.records if r.status == "fail"]

    def to_json_lines(self):
        return "\n".join(r.to_json() for r in self.records)

    def summary(self):
        c = self.counts()
        lines = [
            f"suite {self.suite}: {c['pass']} pass, {c['fail']} fail, "
            f"{c['outside-trusted-zone']} outside trusted zone"
        ]
        for r in self.records:
            if r.status != "pass":
                ps = " ".join(f"{k}={v}" for k, v in r.params)
                lines.append(f"  {r.status.upper()}: {r.check_id} {ps}")
                if r.witness:
                    lines.append(f"    witness: {r.witness}")
        return "\n".join(lines)


# kwargs in any order and under several names, so one check id has columns
# of different shapes
_PARAMS = st.lists(
    st.tuples(
        st.sampled_from(["i", "m", "n", "kind"]),
        st.one_of(st.integers(-5, 10**6), st.text(max_size=3), st.tuples(st.integers(0, 3))),
    ),
    max_size=3,
    unique_by=lambda kv: kv[0],
)
_CHECK_IDS = st.sampled_from(["sandwich-upper", "power-top", "shifted-power-top"])
_SIMPLE_OPS = st.one_of(
    st.tuples(st.just("check"), _CHECK_IDS, st.booleans(), st.text(max_size=4), _PARAMS),
    # add_range sets m itself, so its params are drawn without one
    st.tuples(
        st.just("range"),
        st.lists(_CHECK_IDS, max_size=3),
        st.lists(st.integers(-5, 10**6), max_size=4) | st.builds(range, st.integers(0, 5)),
        _PARAMS.filter(lambda kvs: all(k != "m" for k, _ in kvs)),
    ),
    st.tuples(
        st.just("add"),
        _CHECK_IDS,
        st.sampled_from(["pass", "fail", "outside-trusted-zone"]),
        st.none() | st.text(max_size=4),
        _PARAMS,
    ),
)
_OPS = st.lists(
    _SIMPLE_OPS
    | st.tuples(st.just("merge"), st.sampled_from(["", "shifted-"]), st.lists(_SIMPLE_OPS)),
    max_size=30,
)


def _replay(rep, ops):
    for op in ops:
        if op[0] == "check":
            _, check_id, ok, text, params = op
            rep.check(check_id, ok, witness=lambda: text, **dict(params))
        elif op[0] == "add":
            _, check_id, status, witness, params = op
            rep.add(check_id, status, witness, **dict(params))
        elif op[0] == "range":
            _, check_ids, ms, params = op
            rep.add_range(check_ids, ms, **dict(params))
        else:
            other = type(rep)("shifted")
            _replay(other, op[2])
            rep.merge(other, prefix=op[1])
    return rep


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_report_matches_list_of_records(ops):
    want = _replay(_ListReport("demo"), ops)
    got = _replay(VerificationReport("demo"), ops)
    assert got.records == want.records
    assert got.to_json_lines() == want.to_json_lines()
    assert got.summary() == want.summary()
    assert got.counts() == want.counts()
    assert got.failures() == want.failures()
    assert got.passed == want.passed


@pytest.mark.parametrize("prefix", ["x-", ""])
def test_report_merges_itself(prefix):
    rep = VerificationReport(suite="demo")
    rep.check("holds", True, m=1, i=0)
    rep.check("breaks", False, witness=lambda: "lhs=1 rhs=2", i=1)
    rep.add("noted", "pass", "kept whole", i=2)
    rep.add("far", "outside-trusted-zone", weight=9)
    rep.add_range(("lo", "hi"), range(5, 7), n=3)
    before = rep.records
    assert before[-4:] == [
        CheckRecord("demo", check_id, (("m", m), ("n", 3)), "pass")
        for m in (5, 6)
        for check_id in ("lo", "hi")
    ]
    rep.merge(rep, prefix=prefix)
    assert rep.records == before + [r._replace(check_id=prefix + r.check_id) for r in before]
    assert rep.counts() == {"pass": 12, "fail": 2, "outside-trusted-zone": 2}


def test_report_passes_store_no_object_per_record():
    # a pass is a counter bump and two values in a column: 100,000 of them
    # add no GC-tracked object and about 56 bytes each (296 bytes each when
    # every pass was a CheckRecord with its params tuples)
    n = 100_000
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        rep = VerificationReport(suite="demo")
        for m in range(n):
            rep.check("sandwich-upper", True, m=m, n=m % 7)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - before < 200
    assert size / n < 100
    assert rep.counts()["pass"] == n and rep.passed


def test_sandwich_report_retains_one_entry_per_segment():
    # 200,000 rows of passes in 6 ladder segments: 15.5 MiB retained when
    # every row went through check
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    table = growth_table(tup, 200_000)
    tracemalloc.start()
    try:
        rep = check_growth_sandwich(tup, table)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size < 64 * 1024
    assert rep.counts() == {"pass": 400_000, "fail": 0, "outside-trusted-zone": 0}


def _dense_rank(vectors, p, n):
    """Rank over F_p of dict vectors on coordinates 0..n-1, by dense Gaussian
    elimination: the oracle of GradedBasis."""
    rows = [[v.get(k, 0) for k in range(n)] for v in vectors]
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col] * pow(rows[rank][col], p - 2, p)
            rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, 4), max_size=6), max_size=12),
)
def test_echelon_matches_dense_elimination(p, raw):
    # int coordinates stand in for derivation keys, all under the grading key 0
    ctx = DpContext(ParameterTuple.constant(p, 1, 1), 2)
    vectors = [{k: c % p for k, c in v.items() if c % p} for v in raw]
    copies = [dict(v) for v in vectors]
    basis = GradedBasis(ctx, 0)
    returned = []  # each new row with a copy taken when insert returned it
    for v in vectors:
        if (row := basis.insert(0, Derivation._of(ctx, v))) is not None:
            returned.append((row, dict(row)))
    assert vectors == copies
    rows = basis.rows.get(0, {})
    assert basis.dimension() == len(rows) == len(returned) == _dense_rank(vectors, p, 8)
    # every row is the dict insert returned, unchanged by later inserts
    assert [id(row) for row in rows.values()] == [id(row) for row, _ in returned]
    assert all(row == copy for row, copy in returned)
    for lead, row in rows.items():
        assert min(row) == lead and row[lead] == 1
    for v in vectors:
        rest, used = basis.reduce(0, v)
        assert rest == {}
        # the multiples rebuild v from the rows
        total = {}
        for lead, c in used.items():
            for k, rc in rows[lead].items():
                total[k] = (total.get(k, 0) + c * rc) % p
        assert {k: c for k, c in total.items() if c} == v


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_outputs():
    # digests of outputs that depend on the order of the closure vectors,
    # pinned so that a representation change which reorders them fails here
    assert _sha256(verify_grading(TUP2, 4).to_json_lines()) == (
        "902513b5ca8430fc085531f13310efee6858263c7afbcc37afb5cd4d5bb0045f"
    )
    assert _sha256(verify_basis_theorem(TUP3, 3).to_json_lines()) == (
        "88741313708d26e0bdfd9958874b35be47a7669200f1ba92aca4613dd32216e2"
    )
    chains = [(r.status, r.k, r.chain_weights) for r in sample_nil_chains(TUP2, 4, 25, seed=7)]
    assert _sha256(repr(chains)) == (
        "48f915b2eef3d5db8749a6a5ed0e05939fdc422f79478c81722b1209e06a5828"
    )


def test_golden_renders(monkeypatch):
    # digests of Derivation.render bytes, so a change of the derivation
    # layout that moves a character of any rendered operator fails here
    digests = []
    for tup, depth in ((TUP2, 4), (TUP3, 3)):
        _, basis = closure_at(tup, depth)
        digests.append(_sha256("\n".join(f"{md} {D.render()}" for md, D in basis.vectors)))
    ctx = DpContext(TUP2, 4)
    lines = []
    for kind in "vwu":
        lines += [pivot(ctx, kind, i).render() for i in range(ctx.depth + 1)]
        for i in range(ctx.depth):
            S, R = TUP2.materialize(i)
            top = S if kind == "v" else R
            lines += [pivot_power(ctx, kind, i, m).render() for m in range(top + 1)]
    assert len(lines) == 39
    digests.append(_sha256("\n".join(lines)))
    # a broken bracket makes the ideal checks fail, so their witnesses
    # [Di,Dj]=res are rendered; the shared closure is built before the patch
    _standard_closure(TUP3, 3)
    monkeypatch.setattr(closure, "bracket", lambda D, E: D)
    out = verify_basis_theorem(TUP3, 3).to_json_lines()
    assert out.count('"fail"') == 307
    digests.append(_sha256(out))
    assert digests == [
        "bb1ddf0554a793e96f425824c118cd5d20c8b5a7d665a65a97c086a70b608cee",
        "04ad9800577b5540ec94169db02bc9fc25a82cc5921528fecd15a3ea29703526",
        "6f489a48910a220a61139f0e985f266848e56542c2d6a3b195dfe5a0908057ec",
        "c4a285b1722702c3471d9875e540522215fbc3bccd35fcad8e0ecd1d91ef5b49",
    ]


@pytest.mark.parametrize(
    "p, spec, depth, dim, digest",
    [
        (3, "constant:1,2", 3, 492,
         "d38c66147693748c54fe4837e5fef7d1e2122e51b53c90878669f1932dc71009"),
        (2, "periodic:1,1;2,1", 4, 102,
         "362d1209bc4c39e5ea6870778e8adaf946e3f0e614784c126757278700a07d4c"),
    ],
)
def test_golden_closure_order(p, spec, depth, dim, digest):
    # the closure vectors in the order the schedule finds them, pinned on
    # rules with unequal exponents, where the grading is least symmetric
    _, basis = closure_at(ParameterTuple.from_spec(p, spec), depth)
    assert len(basis.vectors) == dim
    assert _sha256("\n".join(f"{md} {D.render()}" for md, D in basis.vectors)) == digest


def test_closure_memory_is_linear_in_dimension():
    # the schedule keeps no per-pair state, so 492 vectors fit under 1 MiB
    ctx = DpContext(ParameterTuple.from_spec(3, "constant:1,2"), 3)
    gens = _standard_generators(ctx)
    cap = ctx.tup.trusted_weight_bound(3)
    tracemalloc.start()
    try:
        basis = restricted_closure(gens, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension() == 492
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# nil behavior of the p-power map


def test_nil_index_of_generators():
    ctx, basis = closure_at(TUP2, 4)
    res = nil_index(pivot(ctx, "v", 0), basis)
    assert (res.status, res.k) == ("nil", 2)
    assert res.chain_weights == (1, 2)
    res_u = nil_index(pivot(ctx, "u", 0), basis)
    assert (res_u.status, res_u.k) == ("nil", 2)
    assert nil_index(Derivation.zero(ctx), basis).k == 0


def test_nil_index_stable_under_bigger_zone():
    ctx5, basis5 = closure_at(TUP2, 5)
    res = nil_index(pivot(ctx5, "v", 0), basis5)
    assert (res.status, res.k) == ("nil", 2)


def test_nil_index_requires_membership():
    ctx, basis = closure_at(TUP2, 4)
    names = {ctx.var_name(v): v for v in ctx.variables()}
    with pytest.raises(ValueError, match="element outside algebra"):
        nil_index(Derivation.shift(ctx, names["x1"]), basis)


def test_sampled_chains_deterministic_and_sound():
    runs = [sample_nil_chains(TUP2, 4, 25, seed=7) for _ in range(2)]
    assert [(r.status, r.k) for r in runs[0]] == [(r.status, r.k) for r in runs[1]]
    assert all(r.status in ("nil", "inconclusive") for r in runs[0])
    assert any(r.status == "nil" for r in runs[0])
    for r in runs[0]:
        if r.status == "nil":
            assert len(r.chain_weights) == r.k
    other = sample_nil_chains(TUP2, 4, 25, seed=8)
    assert [(r.status, r.k) for r in other] != [(r.status, r.k) for r in runs[0]]


def _chain_weights_by_parts(e, cap):
    """The nil chain's weights as they were first computed: the largest
    multidegree sum among the graded parts of each power."""
    p, weights = e.ctx.p, []
    while parts := e.graded_components():
        weights.append(max(map(sum, parts)))
        if p * weights[-1] > cap:
            break
        e = p_power(e)
    return tuple(weights)


@pytest.mark.parametrize("tup, depth, samples", [(TUP2, 4, 60), (TUP3, 3, 40)])
def test_nil_chain_weights_match_graded_parts(tup, depth, samples):
    basis = _standard_closure(tup, depth)
    ctx, cap, p = basis.ctx, basis.cap, tup.p
    rng = random.Random(20 * depth + p)
    inhomogeneous = 0
    for _ in range(samples):
        budget = rng.choice([cap // (p * p), cap // p, cap])
        pool = [D for md, D in basis.vectors if sum(md) <= budget]
        e = Derivation.zero(ctx)
        for _ in range(rng.randint(1, 5)):
            e = e + rng.choice(pool).scale(rng.randrange(1, p))
        inhomogeneous += len(e.graded_components()) > 1
        res = nil_index(e, basis)
        assert res.chain_weights == _chain_weights_by_parts(e, cap)
        assert len(res.chain_weights) == res.k + (res.status == "inconclusive")
    assert inhomogeneous


def test_sampled_chains_p3():
    results = sample_nil_chains(TUP3, 3, 20, seed=3)
    assert all(r.status in ("nil", "inconclusive") for r in results)
    assert any(r.status == "nil" for r in results)


def _sampler_draws(tup, depth, samples, seed, max_terms):
    """The (basis index, coefficient) picks of each sample, drawn in the
    sampler's order: pool, term count, indices, then one coefficient each."""
    basis = _standard_closure(tup, depth)
    cap, p = basis.cap, tup.p
    rng = random.Random(seed)
    budgets = [max(1, cap // (p * p)), max(1, cap // p), cap]
    weights = [sum(md) for md, _D in basis.vectors]
    pools = {b: [i for i, w in enumerate(weights) if w <= b] for b in budgets}
    draws = []
    for _ in range(samples):
        pool = pools[rng.choices(budgets, weights=[6, 3, 1], k=1)[0]]
        k = rng.randint(1, max_terms)
        picks = [rng.choice(pool) for _ in range(min(k, len(pool)))]
        draws.append([(i, rng.randrange(1, p)) for i in picks])
    return basis, draws


def _per_sample_nil_chains(tup, depth, samples, seed, max_terms):
    """Oracle: each sample built by chained scaled additions and pushed
    through ``nil_index`` on its own."""
    basis, draws = _sampler_draws(tup, depth, samples, seed, max_terms)
    return [nil_index(_combination(basis, picks), basis) for picks in draws]


def _combination(basis, picks):
    """Σ c·vectors[i] over the (i, c) pairs of picks, by chained additions."""
    e = Derivation.zero(basis.ctx)
    for i, c in picks:
        e = e + basis.vectors[i][1].scale(c)
    return e


def _folded(picks, p):
    """The coefficient vector of a sample's picks, zero entries dropped."""
    coeffs = {}
    for i, c in picks:
        coeffs[i] = (coeffs.get(i, 0) + c) % p
    return frozenset((i, c) for i, c in coeffs.items() if c)


NIL_MEMO_CASES = [
    (TUP2, 4),
    (TUP3, 3),
    (ParameterTuple.constant(5, 1, 1), 2),
    (ParameterTuple.from_spec(2, "periodic:1,1;2,1"), 4),
    (ParameterTuple.constant(5, 1, 1), 3),
]
NIL_MEMO_IDS = ["p2", "p3", "p5", "p2-periodic", "p5-d3"]


@pytest.mark.parametrize("max_terms", [1, 5, 8])
@pytest.mark.parametrize("seed", [1, 7, 20260815])
@pytest.mark.parametrize("tup, depth", NIL_MEMO_CASES, ids=NIL_MEMO_IDS)
def test_sampled_chains_match_per_sample_oracle(tup, depth, seed, max_terms):
    got = sample_nil_chains(tup, depth, 60, seed=seed, max_terms=max_terms)
    assert got == _per_sample_nil_chains(tup, depth, 60, seed, max_terms)


@pytest.mark.parametrize("tup, depth", NIL_MEMO_CASES, ids=NIL_MEMO_IDS)
def test_sampled_chains_index_each_coefficient_vector_once(tup, depth, monkeypatch):
    # one chain per distinct coefficient vector, run on that vector itself
    _basis, draws = _sampler_draws(tup, depth, 200, 3, 8)
    distinct = {_folded(picks, tup.p) for picks in draws}
    calls = []
    chain = closure._nil_chain

    def counting(x, *args):
        calls.append(frozenset(x.items()))
        return chain(x, *args)

    monkeypatch.setattr(closure, "_nil_chain", counting)
    sample_nil_chains(tup, depth, 200, seed=3, max_terms=8)
    assert len(calls) == len(distinct) < 200
    assert set(calls) == distinct


def test_sampled_chains_fold_cancelling_coefficients():
    # at p = 2 a basis vector drawn twice cancels, and an element can
    # vanish outright; both fold to the vector the oracle sums to
    _basis, draws = _sampler_draws(TUP2, 4, 200, 3, 8)
    folded = [_folded(picks, 2) for picks in draws]
    assert any(len(f) < len({i for i, _c in picks}) for f, picks in zip(folded, draws))
    assert frozenset() in folded
    got = sample_nil_chains(TUP2, 4, 200, seed=3, max_terms=8)
    assert got == _per_sample_nil_chains(TUP2, 4, 200, 3, 8)
    assert got[folded.index(frozenset())] == closure.NilResult("nil", 0, 2, ())


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run ``seconds`` seconds."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _zero_power(D):
    return Derivation.zero(D.ctx)


def _power_of_odd_term_counts(D):
    # a fault that depends on the element: even term counts vanish at once
    return p_power(D) if len(D.terms) % 2 else Derivation.zero(D.ctx)


def _identity_power(D):
    return D


@pytest.mark.parametrize("fault", [_zero_power, _power_of_odd_term_counts, _identity_power])
@pytest.mark.parametrize("tup, depth", NIL_MEMO_CASES[:2], ids=NIL_MEMO_IDS[:2])
def test_sampled_chains_keep_a_faulty_p_power_visible(tup, depth, fault, monkeypatch):
    # the sampler takes p-th powers of in-zone basis vectors only, so a
    # fault shows exactly when it changes one of those: the results change
    # or it raises, and it never hangs.  At p = 3 every such vector with an
    # even term count has p-th power zero, so there the odd-count fault is
    # the true p-th power on every input the sampler uses.
    basis = _standard_closure(tup, depth)
    faithful = all(
        fault(D) == p_power(D) for md, D in basis.vectors if tup.p * sum(md) <= basis.cap
    )
    truth = sample_nil_chains(tup, depth, 120, seed=5, max_terms=8)
    monkeypatch.setattr(closure, "p_power", fault)
    with _within(20):
        try:
            got = sample_nil_chains(tup, depth, 120, seed=5, max_terms=8)
        except RuntimeError:
            assert not faithful
            return
    assert (got == truth) == faithful


def test_identity_p_power_raises_in_both_paths(monkeypatch, capsys):
    # a p-power that returns its input would keep the chain inside the zone
    # for ever; the shared closure is built before the patch
    basis = _standard_closure(TUP2, 4)
    monkeypatch.setattr(closure, "p_power", _identity_power)
    argv = ["nil", "--p", "2", "--tuple", "constant:1,1", "--depth", "4",
            "--samples", "20", "--seed", "1"]
    with _within(20):
        with pytest.raises(RuntimeError, match="least weight 1 below 2 times 1"):
            nil_index(pivot(basis.ctx, "v", 0), basis)
        with pytest.raises(RuntimeError, match="p-th power of basis vector [0-9]+ does not lie"):
            sample_nil_chains(TUP2, 4, 20, seed=1)
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal check failed: the p-th power of basis vector")


def test_wrong_weight_bracket_raises(monkeypatch):
    # [v_i, v_j] must lie at the sum of the two multidegrees
    _standard_closure(TUP2, 4)
    monkeypatch.setattr(closure, "bracket", lambda D, E: D + E)
    with _within(20), pytest.raises(RuntimeError, match="bracket of basis vectors .* weight"):
        sample_nil_chains(TUP2, 4, 60, seed=1, max_terms=8)


def test_sampler_refuses_a_closure_missing_a_vector(monkeypatch):
    # the copy lacks one vector of weight 2, a bracket of two generators, in
    # its vectors and its rows alike, so a chain that reaches it finds a
    # product outside the span
    basis = _standard_closure(TUP2, 4)
    drop = next(k for k, (md, _D) in enumerate(basis.vectors) if sum(md) == 2)
    copy = closure.GradedBasis(basis.ctx, basis.cap)
    for k, (md, D) in enumerate(basis.vectors):
        if k != drop:
            # each vector holds no lead of the vectors before it, so it is
            # inserted as it stands
            assert copy.insert(md, D) == D.terms
            copy.vectors.append((md, D))
    assert copy.dimension() == len(copy.vectors) == len(basis.vectors) - 1
    assert not copy.member(dict([basis.vectors[drop]]))
    monkeypatch.setattr(closure, "_standard_closure", lambda tup, depth: copy)
    with _within(20), pytest.raises(RuntimeError, match="does not lie in the span"):
        sample_nil_chains(TUP2, 4, 200, seed=3, max_terms=8)


COORDINATE_CASES = [(TUP2, 4), (TUP3, 3), (ParameterTuple.constant(5, 1, 1), 3)]


@pytest.mark.parametrize("tup, depth", COORDINATE_CASES, ids=["p2", "p3", "p5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coordinate_products_match_derivations(tup, depth, data):
    basis = _standard_closure(tup, depth)
    p = tup.p
    consts = StructureConstants(basis)
    pool = [k for k, (md, _D) in enumerate(basis.vectors) if p * sum(md) <= basis.cap]
    # two or more vectors, so that Jacobson's cross terms take part
    element = st.dictionaries(
        st.sampled_from(pool), st.integers(1, p - 1), min_size=2, max_size=6
    )
    x, y = data.draw(element), data.draw(element)
    X, Y = _combination(basis, x.items()), _combination(basis, y.items())

    def coordinates(D):
        out = {}
        for md, part in D.graded_components().items():
            out.update(consts.coordinates(part.terms, md))
        return out

    assert consts.p_power(x) == coordinates(p_power(X))
    assert consts.bracket(x, y) == coordinates(closure.bracket(X, Y))


@pytest.mark.parametrize("tup, depth", COORDINATE_CASES, ids=["p2", "p3", "p5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coordinates_of_a_combination_are_its_coefficients(tup, depth, data):
    # every vector is its echelon row, so reducing a combination against the
    # closure's echelons reads its coefficients back
    basis = _standard_closure(tup, depth)
    p = tup.p
    consts = StructureConstants(basis)
    x = data.draw(st.dictionaries(
        st.integers(0, len(basis.vectors) - 1), st.integers(1, p - 1), max_size=8
    ))
    got = {}
    for md, part in _combination(basis, x.items()).graded_components().items():
        got.update(consts.coordinates(part.terms, md))
    assert got == x


# ---------------------------------------------------------------------------
# self-similarity: the weight-(>= 1) part decomposes along the first block


def test_self_similarity_constant():
    assert self_similarity_decompose(TUP2, 3).passed
    assert self_similarity_decompose(TUP3, 3).passed


def test_self_similarity_periodic():
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    assert self_similarity_decompose(tup, 4).passed


def test_self_similarity_needs_periodicity():
    with pytest.raises(ValueError, match="periodic"):
        self_similarity_decompose(ParameterTuple.kappa(2, "1/2"), 3)


# ---------------------------------------------------------------------------
# every guard fires


def test_restricted_closure_refuses_no_or_mixed_generators():
    with pytest.raises(ValueError, match="need at least one generator"):
        restricted_closure([], 1)
    gens = [pivot(DpContext(TUP2, 3), "v", 0), pivot(DpContext(TUP2, 4), "w", 0)]
    with pytest.raises(ContextMismatchError):
        restricted_closure(gens, 1)


def test_nil_index_refuses_another_context():
    _, basis = closure_at(TUP2, 3)
    with pytest.raises(ContextMismatchError):
        nil_index(pivot(DpContext(TUP2, 4), "v", 0), basis)


def test_self_similarity_needs_depth_twice_the_period():
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    with pytest.raises(ValueError, match=r"depth >= twice the period \(4\)"):
        self_similarity_decompose(tup, 3)


def test_shallow_suites_are_refused_by_the_closure():
    # DpContext refuses depth 0, and the trusted weight bound depth 1
    for depth, message in ((0, "depth must be >= 1"), (1, "depth must be >= 2")):
        with pytest.raises(ValueError, match=message):
            verify_grading(TUP2, depth)


def test_oversized_closure_is_refused_in_process(capsys):
    # p=2 depth 7 has 16,908 descriptors: refused before any bracket
    code = main(["basis", "--p", "2", "--tuple", "constant:1,1", "--depth", "7", "--check"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [
        f"error: closure too large: 16908 basis elements at depth 7 "
        f"exceed the limit {closure.MAX_CLOSURE_DIM}"
    ]
