"""Basis-monomial bookkeeping: counting, enumeration, and growth tables."""

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import random
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import (
    DpContext,
    GrowthTable,
    MonomialDescriptor,
    ParameterTuple,
    count_descriptors,
    enumerate_descriptors,
    family_totals,
    gk_periodic,
    growth_table,
    monomial_weight,
    realize,
)
from cloverlie import monomials
from cloverlie.cli import _quasilinear_checkpoints
from cloverlie.monomials import FAMILIES, validate_descriptor
from cloverlie.params import TupleRuleError
from conftest import random_explicit_tuple

TUP2 = ParameterTuple.constant(2, 1, 1)
TUP3 = ParameterTuple.constant(3, 1, 1)

# Cumulative counts by weight for the smallest rule at p = 2, hand-checked by
# listing words per length and per head cell: rows are
# (m, first, second, power-of-x-type, power-of-z-type, total).
ROWS_2_11 = [
    (1, 2, 1, 0, 0, 3),
    (2, 3, 2, 2, 1, 8),
    (3, 5, 4, 2, 1, 12),
    (4, 6, 7, 2, 1, 16),
    (5, 8, 10, 2, 1, 21),
    (6, 9, 13, 4, 2, 28),
    (7, 11, 19, 4, 2, 36),
    (8, 15, 25, 4, 2, 46),
    (9, 17, 30, 4, 2, 53),
]


def test_growth_rows_smallest_rule():
    assert growth_table(TUP2, 9).rows == ROWS_2_11


def test_growth_row_p3():
    # hand-checked cumulative counts at weight 10 for p = 3, S = R = 1
    t = growth_table(TUP3, 10)
    assert t.rows[-1] == (10, 19, 42, 2, 1, 64)
    assert t.gamma(10) == 64


def test_gamma_cumulative_and_monotone():
    t = growth_table(TUP2, 30)
    for (m1, *_, g1), (m2, *_, g2) in zip(t.rows, t.rows[1:]):
        assert m2 == m1 + 1 and g2 >= g1
    with pytest.raises(KeyError):
        t.gamma(31)


def test_counts_match_table_columns():
    t = growth_table(TUP2, 9)
    for m, first, second, pow1, pow2, total in t.rows:
        c = count_descriptors(TUP2, m)
        assert c["first"] == first
        assert c["second"] == second
        assert c["power_v"] + c["power_w"] == pow1
        assert c["power_u"] == pow2
        assert sum(c.values()) == total


def test_family_totals_by_length():
    assert family_totals(TUP2, 0) == {
        "first": 2,
        "second": 1,
        "power_v": 0,
        "power_w": 0,
        "power_u": 0,
    }
    t1 = family_totals(TUP2, 1)
    assert (t1["power_v"], t1["power_w"], t1["power_u"]) == (1, 1, 1)
    # totals over all weights at a fixed length agree with a generous cutoff
    for length in range(4):
        for fam, total in family_totals(TUP2, length).items():
            assert count_descriptors(TUP2, 10**6, family=fam, length=length) == total


# ---------------------------------------------------------------------------
# enumeration agrees with counting and with realized operators


def test_enumerate_matches_count():
    descs = list(enumerate_descriptors(TUP2, 9))
    assert len(descs) == 53
    assert len(set(descs)) == 53
    only_second = list(enumerate_descriptors(TUP2, 9, families=("second",)))
    assert len(only_second) == 30
    assert all(d.family == "second" for d in only_second)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_enumerate_matches_count_random_rules(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    p = rng.choice((2, 3))
    pairs = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(4)]
    tup = ParameterTuple.explicit(p, pairs)
    m = rng.randint(1, 40)
    descs = list(enumerate_descriptors(tup, m))
    assert len(descs) == len(set(descs))
    counted = count_descriptors(tup, m)
    by_family = {}
    for d in descs:
        by_family[d.family] = by_family.get(d.family, 0) + 1
        wv = monomial_weight(d, tup)
        assert wv.total <= m
    for fam, n in counted.items():
        assert by_family.get(fam, 0) == n


def test_realized_operators_carry_declared_weight():
    ctx = DpContext(TUP2, 4)
    for d in enumerate_descriptors(TUP2, 9):
        D = realize(d, ctx)
        wv = monomial_weight(d, TUP2)
        assert not D.is_zero()
        assert D.multidegree() == (wv.v, wv.w, wv.u)
        assert D.weight() == wv.total


def test_realized_operators_distinct():
    ctx = DpContext(TUP2, 4)
    ops = [realize(d, ctx) for d in enumerate_descriptors(TUP2, 9)]
    renders = {str(op) for op in ops}  # canonical sorted-term rendering
    assert len(renders) == len(ops) == 53


def test_validate_descriptor_errors():
    with pytest.raises(ValueError, match="descriptor out of bounds"):
        validate_descriptor(MonomialDescriptor("second", 2, (5, 0), ((0, 0, 0),)), TUP2)
    with pytest.raises(ValueError, match="unknown family"):
        validate_descriptor(MonomialDescriptor("bogus", 1, (0, 0)), TUP2)
    with pytest.raises(ValueError, match="tail entry"):
        validate_descriptor(MonomialDescriptor("first", 2, (0, 0), ((0, 0, 0),)), TUP2)


def test_box_prefix_matches_lattice_count():
    rng = random.Random(20261018)
    for _ in range(60):
        sides = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        sums = [sum(pt) for pt in itertools.product(*(range(n) for n in sides))]
        for s in range(-2, sum(sides) + 2):
            assert monomials._box_prefix(s, sides) == sum(t <= s for t in sums), (s, sides)


def test_enumerated_descriptors_validate():
    rules = {
        2: [(1, 1), (2, 1), (1, 2), (1, 1)],
        3: [(1, 2), (2, 1), (1, 1)],
        5: [(2, 1), (1, 2), (1, 1)],
    }
    for p, pairs in rules.items():
        tup = ParameterTuple.explicit(p, pairs)
        descs = list(enumerate_descriptors(tup, 60))
        assert {d.family for d in descs} == set(FAMILIES)
        assert any(d.tail for d in descs)
        for d in descs:
            validate_descriptor(d, tup)


def test_descriptor_labels_are_distinct():
    labels = [str(d) for d in enumerate_descriptors(TUP2, 9)]
    assert len(labels) == len(set(labels))


# ---------------------------------------------------------------------------
# large tables, checkpoints, and serialization


def test_large_table_cross_engine():
    # counts around and beyond the weight where dense evaluation kicks in
    t = growth_table(TUP2, 2187)
    assert t.gamma(2187) == sum(count_descriptors(TUP2, 2187).values())
    assert t.gamma(27) == 318


def test_dense_rows_match_count_at_every_weight():
    # the dense int64 path against the big-integer engine at every row
    rng = random.Random(20261018)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        tup = ParameterTuple.explicit(
            p, [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(8)]
        )
        M = rng.randint(1, 300)
        dense = monomials._dense_exact_rows(tup, M)
        assert dense is not None
        cum = {f: np.cumsum(dense[f]) for f in FAMILIES}
        for m in range(1, M + 1):
            counts = count_descriptors(tup, m)
            assert {f: int(cum[f][m]) for f in FAMILIES} == counts, (tup, m)


def test_dense_rows_match_count_on_lopsided_rules():
    # large, unequal exponent boxes: most tail distributions are cut at M,
    # and every row still equals the big-integer engine's
    rng = random.Random(20261020)
    cut = 0
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        tup = ParameterTuple.explicit(
            p, [(rng.randint(1, 6), rng.randint(1, 8)) for _ in range(8)]
        )
        M = rng.randint(1, 400)
        dense = monomials._dense_exact_rows(tup, M)
        cum = {f: np.cumsum(dense[f]) for f in FAMILIES}
        for m in range(1, M + 1):
            counts = count_descriptors(tup, m)
            assert {f: int(cum[f][m]) for f in FAMILIES} == counts, (tup, m)
        # the cut is active at a length n > 1 when dmax(n-1) > M - base, i.e. 2 W_{n-1} > M
        cut += any(
            2 * W > M
            for fam in ("first", "second")
            for n, W in monomials._lengths(tup, fam, M)
            if n > 1
        )
    assert cut


def test_slack_base_is_the_least_weight():
    rng = random.Random(7)
    tups = [TUP2, ParameterTuple.periodic(3, [(1, 2), (2, 1)])]
    tups += [random_explicit_tuple(rng, max_S=6, max_R=8, length=20) for _ in range(20)]
    for tup in tups:
        for fam in ("first", "second"):
            eng, least, seen = monomials._engine(tup, fam), 0, 0
            for n, W in monomials._lengths(tup, fam, 10**6):
                # reference: W_{n-1} + 1 (first), or the running sum
                # 2 + sum_{i < n-1} (p^{S_i} - 1) W_i (second)
                if fam == "first":
                    least = W + 1
                elif n == 1:
                    least = 2
                else:
                    least += (tup.powers(n - 2)[0] - 1) * tup.pivot_weight(n - 2)
                assert monomials._least_weight(eng, fam, n) == least, (tup, fam, n)
                seen = n
            assert seen >= 2


def test_dense_rows_cross_checked_at_pivot_weights(monkeypatch):
    real = monomials._dense_exact_rows

    def corrupted(tup, M):
        # off by one at the pivot weight W_2 = 9 only: the last row is intact
        out = real(tup, M)
        out["first"][9] += 1
        out["first"][10] -= 1
        return out

    monkeypatch.setattr(monomials, "_dense_exact_rows", corrupted)
    with pytest.raises(RuntimeError, match="counting engines disagree"):
        growth_table(TUP2, 100)


def test_growth_table_takes_the_dense_path_on_large_boxes():
    # the second family's length-2 tails number 2^42, with slacks up to
    # 49,149: only those of slack <= M - base are kept, and the table is dense
    tup = ParameterTuple.constant(2, 14, 14)
    M = 16385
    t = growth_table(tup, M)
    assert t.ms == range(1, M + 1)
    assert all(col.format == "q" for col in (t.first, t.second, t.totals))
    assert len(t.rows) == M
    for n in itertools.count():
        m = min(tup.pivot_weight(n), M)
        counts = count_descriptors(tup, m)
        assert t.rows[m - 1] == (m, *monomials._columns(counts), sum(counts.values()))
        if m == M:
            break


def test_engine_cache_bounded_and_thread_safe():
    monomials._engine.cache_clear()
    for S in range(1, 21):
        count_descriptors(ParameterTuple.constant(2, S, 1), 10**6)
    info = monomials._engine.cache_info()
    assert 0 < info.currsize <= info.maxsize

    # four threads race one fresh tuple and engine, five times over
    pattern = [(1, 2), (2, 1), (1, 1)]
    m = 10**400
    serial = count_descriptors(ParameterTuple.periodic(3, pattern), m)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monomials._engine.cache_clear()
            tup = ParameterTuple.periodic(3, pattern)
            start = threading.Barrier(4)
            results = []

            def count():
                start.wait(timeout=60)
                results.append(count_descriptors(tup, m))

            threads = [threading.Thread(target=count) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
            # the racing threads filled the shared power table exactly once each
            pairs = tup.pairs(len(tup._powers))
            assert tup._powers == [(3**S, 3**R) for S, R in pairs]
    finally:
        sys.setswitchinterval(old)


def _per_length_counts(tup, m):
    """The per-length engine summed over the lengths ``_lengths`` yields."""
    out = {}
    for f in FAMILIES:
        acc = count_descriptors(tup, m, family=f, length=0)
        for n, _ in monomials._lengths(tup, f, m):
            acc += count_descriptors(tup, m, family=f, length=n)
        out[f] = acc
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TupleRuleError as exc:
        return f"TupleRuleError: {exc}"


@contextlib.contextmanager
def _checked_tail_engine():
    """Fresh engines whose ``below`` and ``at_least`` assert their
    preconditions on every call; yields the number of calls of each."""
    below, at_least = monomials._TailEngine.below, monomials._TailEngine.at_least
    calls = {"below": 0, "at_least": 0}

    def checked_below(self, k, t):
        assert k >= 1 and 0 <= t < self.dmax(k), ("below", k, t)
        calls["below"] += 1
        return below(self, k, t)

    def checked_at_least(self, k, req):
        assert k >= 1 and 1 <= req <= self.dmax(k), ("at_least", k, req)
        calls["at_least"] += 1
        return at_least(self, k, req)

    monomials._engine.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monomials._TailEngine, "below", checked_below)
        mp.setattr(monomials._TailEngine, "at_least", checked_at_least)
        yield calls


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5)),
    pairs=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=6),
    m=st.integers(0, 3000) | st.integers(0, 10**9),
    length=st.none() | st.integers(0, 7),
)
def test_tail_engine_asked_only_inside_its_preconditions(p, pairs, m, length):
    # the tail counts are defined only for k >= 1, 0 <= t < dmax(k) and
    # 1 <= req <= dmax(k); every call the counting core makes stays there
    tup = ParameterTuple.explicit(p, pairs)
    monomials._engine.cache_clear()
    expect = _outcome(count_descriptors, tup, m, None, length)
    with _checked_tail_engine():
        assert _outcome(count_descriptors, tup, m, None, length) == expect


def test_tail_engine_precondition_check_sees_calls():
    # the property above is not vacuous: a count that cuts tails asks both
    with _checked_tail_engine() as calls:
        assert sum(count_descriptors(TUP2, 9).values()) == 53
    assert calls["below"] and calls["at_least"]


def test_prefix_table_matches_per_length_sum():
    rng = random.Random(20261018)
    rules = []
    for p in (2, 3, 5):
        pairs = [(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(5)]
        pattern = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(3)]
        rules += [
            ParameterTuple.explicit(p, pairs),
            ParameterTuple.periodic(p, pattern),
            ParameterTuple.kappa(p, "1/2" if p == 2 else rng.choice(("1/3", "2/3"))),
            ParameterTuple.qkappa(p, 1, 1),
        ]
    raised = 0
    for tup in rules:
        monomials._engine.cache_clear()  # tables start empty and grow out of order
        ws = [*range(401), *(rng.randrange(10**60) for _ in range(30))]
        if tup == ParameterTuple.kappa(2, "1/2"):
            ws += _quasilinear_checkpoints(tup, 10**2000)
        rng.shuffle(ws)
        for m in ws:
            got = _outcome(count_descriptors, tup, m)
            assert got == _outcome(_per_length_counts, tup, m), (tup.spec, tup.p, m)
            raised += isinstance(got, str)
        # each table row's closed form is the length's family total
        for col in ("first", "second"):
            for f, (least, sat, prefix) in monomials._engine(tup, col)._tables.items():
                for n in range(1, len(least)):
                    assert prefix[n] - prefix[n - 1] == family_totals(tup, n)[f]
    assert raised  # the finite explicit rules run out of entries at large weights


def test_length_tables_bounded_and_thread_safe():
    monomials._engine.cache_clear()
    for S in range(1, 21):
        count_descriptors(ParameterTuple.constant(2, S, 1), 10**6)
    gc.collect()
    engines = [o for o in gc.get_objects() if isinstance(o, monomials._TailEngine)]
    assert 0 < len(engines) <= monomials._engine.cache_info().maxsize
    for eng in engines:
        assert {monomials._COLUMN[f] for f in eng._tables} == {eng.family}

    # four threads race the tables of one fresh tuple, each in its own weight order
    pattern = [(1, 2), (2, 1), (1, 1)]
    weights = [10**e for e in range(0, 401, 25)]
    serial = [count_descriptors(ParameterTuple.periodic(3, pattern), m) for m in weights]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rnd in range(5):
            monomials._engine.cache_clear()
            tup = ParameterTuple.periodic(3, pattern)
            start = threading.Barrier(4)
            results = [None] * 4

            def count(i):
                order = random.Random(10 * rnd + i).sample(range(len(weights)), len(weights))
                start.wait(timeout=60)
                got = {j: count_descriptors(tup, weights[j]) for j in order}
                results[i] = [got[j] for j in range(len(weights))]

            threads = [threading.Thread(target=count, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
    finally:
        sys.setswitchinterval(old)


def test_enclosures_thread_safe_and_leave_mpmath_precision_alone():
    # exponent enclosures and tower-rule entries race in four threads; each
    # must match its serial value and leave mpmath's global precision as found
    rules = [
        ParameterTuple.constant(2, 40, 1),
        ParameterTuple.periodic(3, [(1, 2), (2, 1)]),
        ParameterTuple.constant(5, 7, 3),
    ] * 5

    def work():
        lams = [gk_periodic(t).lam_interval() for t in rules]
        return lams, ParameterTuple.qkappa(2, 2, 4).pairs(7)

    serial = work()
    before = (mpmath.mp.prec, mpmath.iv.prec)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            start = threading.Barrier(4)
            results = [None] * 4

            def race(i):
                start.wait(timeout=60)
                results[i] = work()

            threads = [threading.Thread(target=race, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [serial] * 4
            assert (mpmath.mp.prec, mpmath.iv.prec) == before
    finally:
        sys.setswitchinterval(old)
        mpmath.mp.prec, mpmath.iv.prec = before


def test_growth_table_validates_rows_and_indexes_on_demand():
    with pytest.raises(ValueError, match="row total mismatch"):
        GrowthTable(p=2, tuple_spec=TUP2.spec, rows=[(1, 2, 1, 0, 0, 4)])
    for rows in ([ROWS_2_11[1], ROWS_2_11[1]], [ROWS_2_11[2], ROWS_2_11[1]]):
        with pytest.raises(ValueError, match="rows must increase"):
            GrowthTable(p=2, tuple_spec=TUP2.spec, rows=rows)
    with pytest.raises(ValueError, match="rows must increase"):
        GrowthTable(p=2, tuple_spec=TUP2.spec, rows=[(1, 2, 1, 0, 0, 3), (2, 1, 1, 0, 0, 2)])
    t = GrowthTable(p=2, tuple_spec=TUP2.spec, rows=ROWS_2_11)
    assert not hasattr(t, "__dict__")  # columns only: gamma bisects, no cached index
    assert t.gamma(5) == 21
    with pytest.raises(KeyError):
        t.gamma(10)
    sparse = GrowthTable(p=2, tuple_spec=TUP2.spec, rows=[ROWS_2_11[2], ROWS_2_11[8]])
    assert sparse.gamma(9) == 53
    for m in (0, 5, 10):
        with pytest.raises(KeyError):
            sparse.gamma(m)


def test_checkpoint_weights():
    t = growth_table(TUP2, 9, weights=[3, 9])
    assert t.rows == [ROWS_2_11[2], ROWS_2_11[8]]


def test_row_cap_guard():
    with pytest.raises(ValueError, match="table too large"):
        growth_table(TUP2, 300000)
    # explicit checkpoints dodge the cap
    t = growth_table(TUP2, 300000, weights=[300000])
    assert t.rows[0][0] == 300000


def test_csv_round_trip():
    t = growth_table(TUP2, 9)
    text = t.to_csv()
    assert text.splitlines()[0] == (
        "m,gamma_total,first,second,power_first,power_second,log_gamma_over_log_m"
    )
    back = GrowthTable.from_csv(text, p=2, tuple_spec=TUP2.spec)
    assert back.rows == t.rows
    with pytest.raises(ValueError, match="unrecognized growth table header"):
        GrowthTable.from_csv("a,b\n1,2\n")


def test_json_payload():
    t = growth_table(TUP2, 3)
    obj = json.loads(t.to_json())
    assert obj["p"] == 2
    assert obj["tuple"] == TUP2.spec
    assert obj["columns"][0] == "m" and obj["columns"][-1] == "gamma_total"
    assert obj["rows"][0] == [1, 2, 1, 0, 0, 3]


def test_count_fetches_each_engine_once(monkeypatch):
    lookups = []
    engine = monomials._engine

    def counted(tup, family):
        lookups.append(family)
        return engine(tup, family)

    monkeypatch.setattr(monomials, "_engine", counted)
    count_descriptors(ParameterTuple.kappa(2, "1/2"), 10**200)
    assert sorted(lookups) == ["first", "second"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_growth_table_golden_bytes():
    # digests of the rendered tables, taken before rows became column-wise
    kappa = ParameterTuple.kappa(2, "1/2")
    checkpoints = [10**j for j in range(1, 201)]
    assert _sha256(growth_table(TUP2, 3000).to_csv()) == (
        "27d896af7062948d3607eff6954be71709f59bbe8edaedbe114124d0a8e06ef7"
    )
    assert _sha256(growth_table(TUP3, 3000).to_json()) == (
        "78a31851566e6c0e3806e375265c84dedbdee22d71b056b9ec10efc2be37dd04"
    )
    assert _sha256(growth_table(kappa, 10**200, weights=checkpoints).to_csv()) == (
        "f1d2ca980dcfbd359333b8a0a395f333e9dc4ea2e0a0586106ff6b7849a84af9"
    )


def _reference_csv(table: GrowthTable) -> str:
    """The csv.writer rendering, one writerow call per row."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(
        [
            "m",
            "gamma_total",
            "first",
            "second",
            "power_first",
            "power_second",
            "log_gamma_over_log_m",
        ]
    )
    for m, fi, se, pf, ps, tot in table.rows:
        ratio = ""
        if m > 1 and tot > 0:
            ratio = f"{math.log(tot) / math.log(m):.12g}"
        wr.writerow([m, tot, fi, se, pf, ps, ratio])
    return buf.getvalue()


def test_csv_matches_csv_writer_reference():
    dense = growth_table(TUP3, 2000)
    checkpoint = growth_table(
        ParameterTuple.kappa(2, "1/2"), 10**300, weights=[2, 10**50, 10**300]
    )
    one_row = growth_table(TUP2, 1)
    assert one_row.to_csv().endswith("\r\n1,3,2,1,0,0,\r\n")
    for table in (dense, checkpoint, one_row):
        text = table.to_csv()
        assert text == _reference_csv(table)
        assert GrowthTable.from_csv(text, p=table.p, tuple_spec=table.tuple_spec).rows == (
            table.rows
        )
    assert all(type(v) is int for row in dense.rows for v in row)
    assert json.loads(dense.to_json())["rows"] == [list(row) for row in dense.rows]


@pytest.mark.parametrize("chunk", [1, 7, monomials._RENDER_CHUNK])
def test_rendering_is_the_same_at_every_chunk_size(monkeypatch, chunk):
    # chunks of 1 and 7 rows end on every row and in the middle of a table
    monkeypatch.setattr(monomials, "_RENDER_CHUNK", chunk)
    test_csv_matches_csv_writer_reference()
    empty = GrowthTable(2, "constant:1,1")
    assert empty.to_csv() == _reference_csv(empty)
    for table in (empty, growth_table(TUP3, 30), growth_table(TUP2, 1)):
        assert table.to_json() == json.dumps(
            {
                "p": table.p,
                "tuple": table.tuple_spec,
                "columns": ["m", "first", "second", "power_first", "power_second", "gamma_total"],
                "rows": [list(row) for row in table.rows],
            }
        )


# ---------------------------------------------------------------------------
# columnar tables against the row-tuple tables they replaced


class _RowTable:
    """A growth table as a list of row tuples, built and rendered as it was
    before the table stored columns."""

    def __init__(self, tup, max_weight, weights=None):
        if weights is None:
            dense = monomials._dense_exact_rows(tup, max_weight)
            assert dense is not None
            cols = monomials._columns({f: np.cumsum(dense[f][1:]) for f in FAMILIES})
            ms = range(1, max_weight + 1)
            self.rows = list(zip(ms, *(c.tolist() for c in (*cols, sum(cols)))))
        else:
            self.rows = []
            for m in sorted(set(weights)):
                cols = monomials._columns(count_descriptors(tup, m))
                self.rows.append((m, *cols, sum(cols)))
        self.p, self.tuple_spec = tup.p, tup.spec

    def gamma(self, m):
        if not hasattr(self, "_index"):
            self._index = {row[0]: row for row in self.rows}
        return self._index[m][5]

    def to_csv(self):
        return _reference_csv(self)

    def to_json(self):
        columns = ["m", "first", "second", "power_first", "power_second", "gamma_total"]
        return json.dumps(
            {"p": self.p, "tuple": self.tuple_spec, "columns": columns, "rows": self.rows}
        )


_ORACLE_TABLES = [
    (TUP2, 9000, None),
    (TUP3, 9000, None),
    (ParameterTuple.constant(5, 1, 1), 9000, None),
    (ParameterTuple.periodic(2, [(1, 1), (2, 1)]), 9000, None),
    (ParameterTuple.kappa(2, "1/2"), 10**200, [2, 3, 10**5, *(10**j for j in range(10, 201, 10))]),
    (ParameterTuple.qkappa(2, 1, 1), 10**40, [2, 3, 10, 100, 1000, 10**6, 10**20, 10**40]),
]


@pytest.mark.parametrize("tup, max_weight, weights", _ORACLE_TABLES)
def test_columnar_table_matches_row_tuples(tup, max_weight, weights):
    table = growth_table(tup, max_weight, weights=weights)
    want = _RowTable(tup, max_weight, weights)
    assert table.rows == want.rows
    assert [table.gamma(row[0]) for row in want.rows] == [want.gamma(row[0]) for row in want.rows]
    assert table.to_csv() == want.to_csv()
    assert table.to_json() == want.to_json()
    back = GrowthTable.from_csv(table.to_csv(), p=tup.p, tuple_spec=tup.spec)
    assert back == table and back.rows == want.rows
    if weights is not None:  # checkpoint cells outgrow int64
        assert max(row[5] for row in want.rows) >= 2**63


def test_rows_view_semantics():
    table = growth_table(TUP2, 9)
    rows = table.rows
    assert len(rows) == 9 and rows[0] == ROWS_2_11[0] and rows[-1] == ROWS_2_11[-1]
    assert rows[-9] == rows[0]
    with pytest.raises(IndexError):
        rows[9]
    assert rows[2:5] == ROWS_2_11[2:5] and isinstance(rows[2:5], list)
    assert rows[::-2] == ROWS_2_11[::-2]
    assert list(rows) == ROWS_2_11 == rows and rows == table.rows
    assert rows != ROWS_2_11[:-1] and rows != tuple(ROWS_2_11)
    assert rows != [list(row) for row in ROWS_2_11]  # rows are tuples, as in a list of them
    assert all(type(v) is int for row in rows for v in row)
    assert all(type(v) is int for v in rows[-1])
    with pytest.raises(TypeError):
        hash(rows)
    assert not hasattr(rows, "append")
    # len and the last row of a 200,000-row view, and of a checkpoint table
    big = growth_table(TUP2, 200_000)
    assert len(big.rows) == 200_000 and big.rows[-1][0] == 200_000
    checkpoint = growth_table(TUP2, 9, weights=[3, 9])
    assert len(checkpoint.rows) == 2 and checkpoint.rows[-1] == ROWS_2_11[8]


def test_dense_table_stores_no_object_per_row():
    # five int64 columns and a range: about 43 bytes a row, against 224
    # bytes, a tuple and up to six ints a row when the table held row tuples
    # (the collector untracks tuples of ints, so the allocated-block count
    # is what sees them)
    n = 200_000
    growth_table(TUP2, n)  # warm the counting engine's caches
    gc.collect()
    before, blocks = len(gc.get_objects()), sys.getallocatedblocks()
    tracemalloc.start()
    try:
        table = growth_table(TUP2, n)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    assert len(gc.get_objects()) - before < 200
    assert sys.getallocatedblocks() - blocks < n // 100
    assert size / n <= 64
    assert len(table.rows) == n


# ---------------------------------------------------------------------------
# every guard fires


# one descriptor per out-of-bounds branch of validate_descriptor, at constant:1,1
# and p = 2, where every box and exponent bound is 2
BAD_DESCRIPTORS = [
    (MonomialDescriptor("first", -1, (0,)), "negative length"),
    (MonomialDescriptor("first", 0, (0,), ((0, 0),)), "length-0 descriptor with nonempty tail"),
    (MonomialDescriptor("power_v", 0, (0,)), "power families have length >= 1"),
    (MonomialDescriptor("first", 0, (2,)), r"length-0 first-family head must be \(0,\) or \(1,\)"),
    (MonomialDescriptor("power_v", 1, (1,), ((0, 0),)), "power descriptor with nonempty tail"),
    (MonomialDescriptor("power_w", 1, (1, 1)), "power head must be a single exponent index"),
    (MonomialDescriptor("power_u", 1, (2,)), r"power exponent index 2 outside 1\.\.1"),
    (MonomialDescriptor("first", 1, (0,)), "head must be an exponent pair"),
    (MonomialDescriptor("first", 1, (1, 1)), "first-family head at the excluded corner cell"),
    (MonomialDescriptor("second", 2, (0, 0)), r"tail must cover generations 0\.\.0"),
    (MonomialDescriptor("second", 2, (0, 0), ((0, 2, 0),)),
     r"tail exponent 2 of generation 0 outside 0\.\.1"),
]


@pytest.mark.parametrize("d, message", BAD_DESCRIPTORS, ids=[m for _, m in BAD_DESCRIPTORS])
def test_validate_descriptor_names_each_bound(d, message):
    with pytest.raises(ValueError, match=f"^descriptor out of bounds: {message}$"):
        validate_descriptor(d, TUP2)
    with pytest.raises(ValueError, match="descriptor out of bounds"):
        monomial_weight(d, TUP2)


def test_realize_refuses_a_generation_beyond_the_truncation():
    d = MonomialDescriptor("first", 3, (0, 0), ((0, 0), (0, 0)))
    realize(d, DpContext(TUP2, 4))
    with pytest.raises(ValueError, match="length 3 needs depth >= 4"):
        realize(d, DpContext(TUP2, 3))


def test_counting_guards():
    with pytest.raises(ValueError, match="max_weight must be >= 0"):
        count_descriptors(TUP2, -1)
    for call in (
        lambda: count_descriptors(TUP2, 5, family="bogus"),
        lambda: enumerate_descriptors(TUP2, 5, families=["first", "bogus"]),
    ):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            call()
    with pytest.raises(ValueError, match="length must be >= 0"):
        family_totals(TUP2, -1)
    # no descriptor weighs below 1, at any length
    assert count_descriptors(TUP2, 0) == dict.fromkeys(FAMILIES, 0)
    assert count_descriptors(TUP2, 0, family="first", length=1) == 0
    assert list(enumerate_descriptors(TUP2, 0)) == []


@pytest.mark.parametrize(
    "weights, message",
    [([0, 3], "checkpoint weights must be >= 1"), ([3, 10], "checkpoint weight beyond max_weight")],
)
def test_growth_table_refuses_checkpoints_outside_one_to_max(weights, message):
    with pytest.raises(ValueError, match=message):
        growth_table(TUP2, 9, weights=weights)


def test_table_reprs_equality_and_empty_json():
    table = growth_table(TUP2, 3)
    assert repr(table) == "GrowthTable(p=2, tuple_spec='constant:1,1', rows=<3 rows>)"
    assert repr(table.rows) == repr(ROWS_2_11[:3])
    assert table != ROWS_2_11[:3] and table != table.rows
    empty = GrowthTable(2, TUP2.spec)
    assert json.loads(empty.to_json()) == {
        "p": 2, "tuple": TUP2.spec, "columns": monomials._JSON_COLUMNS, "rows": []
    }
