"""Bracket/power closure: basis dimensions, gradings, nil chains, recursion."""

import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import (
    Derivation,
    DpContext,
    ParameterTuple,
    count_descriptors,
    nil_index,
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
from cloverlie import closure
from cloverlie.cli import main
from cloverlie.closure import CheckRecord, _standard_closure, _standard_generators
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

    # every check goes through add, the one record constructor
    calls = {"add": 0, "check": 0}

    def count_calls(name):
        method = getattr(VerificationReport, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(VerificationReport, name, counted)

    count_calls("add")
    count_calls("check")
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    rep = check_growth_sandwich(tup, growth_table(tup, 300))
    assert calls["add"] == calls["check"] == len(rep.records) == 600


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


def test_sampled_chains_p3():
    results = sample_nil_chains(TUP3, 3, 20, seed=3)
    assert all(r.status in ("nil", "inconclusive") for r in results)
    assert any(r.status == "nil" for r in results)


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

