"""Growth analytics: exponent formulas, density, sandwich bounds, fitting."""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import analytics
from cloverlie import (
    GrowthTable,
    ParameterTuple,
    TupleRuleError,
    VerificationReport,
    check_cubic_bounds,
    check_growth_sandwich,
    check_quasilinear_bounds,
    estimate_exponent,
    gk_density_scan,
    gk_periodic,
    growth_table,
    theta_bounds,
)

TUP2 = ParameterTuple.constant(2, 1, 1)


# ---------------------------------------------------------------------------
# closed-form growth exponents


def test_exponent_smallest_rule():
    rep = gk_periodic(TUP2)
    assert (rep.mu, rep.sigma, rep.period) == (3, 3, 1)
    assert rep.lam == "1.89278926071"
    # lam is rendered to 12 significant digits, so parsing it back is good
    # to the last printed place
    assert abs(rep.lam_float - 3 * math.log(2) / math.log(3)) < 1e-11
    iv = rep.lam_interval()
    # the enclosure is tighter than double arithmetic, so compare with a
    # few-ulp slack around the float evaluation of 3 ln2 / ln3
    approx = 3 * math.log(2) / math.log(3)
    assert iv[0] - 1e-14 <= approx <= iv[1] + 1e-14
    assert 0 <= iv[1] - iv[0] < 1e-13
    assert float(rep.lam) == pytest.approx((iv[0] + iv[1]) / 2, abs=1e-11)
    assert "3" in rep.describe()


def test_exponent_other_rules():
    assert gk_periodic(ParameterTuple.constant(2, 5, 1)).lam == "1.38767904219"
    rep = gk_periodic(ParameterTuple.periodic(2, [(1, 1), (5, 1)]))
    assert (rep.mu, rep.sigma, rep.period) == (99, 10, 2)
    assert rep.lam == "1.50844200623"
    assert 1.0 <= rep.lam_float <= 3.0


def test_exponent_requires_periodicity():
    with pytest.raises(ValueError, match="constant or periodic"):
        gk_periodic(ParameterTuple.kappa(2, "1/2"))


# ---------------------------------------------------------------------------
# density of exponents over constant rules


def test_density_scan_small_grid():
    scan = gk_density_scan(2, 8, 8)
    assert len(scan.entries) == 64
    assert scan.all_in_range
    assert 1.0 <= scan.lambda_min <= scan.lambda_max <= 3.0
    # entries are sorted and keyed back to their grid cell
    approxes = [e[0] for e in scan.entries]
    assert approxes == sorted(approxes)
    assert {(S, R) for _, S, R in scan.entries} == {
        (S, R) for S in range(1, 9) for R in range(1, 9)
    }
    # each approx float is the float nearest the exponent: it lies inside the
    # cell's enclosure at the grid's precision and inside the enclosure its
    # own GKReport certifies
    ctx = analytics._exponent_context(2**8 + 2**8 - 1)
    fine = mpmath.MPContext()
    fine.prec = 400
    for approx, S, R in scan.entries:
        mu, sigma = 2**S + 2**R - 1, S + 2 * R
        val = sigma * ctx.log(2) / ctx.log(mu)
        assert analytics._float_down(val) <= approx <= analytics._float_up(val)
        lo, hi = gk_periodic(ParameterTuple.constant(2, S, R)).lam_interval()
        assert lo <= approx <= hi
        nearest = mpmath.libmp.to_float(
            (sigma * fine.log(2) / fine.log(mu))._mpf_, rnd=mpmath.libmp.round_nearest
        )
        assert approx == nearest


def _reference_order(p, S_max, R_max):
    """(S, R) order of the scan before it sorted by enclosures: a 53-bit float
    sort, redone with exact power comparisons if an adjacent pair is out of order."""
    ctx = mpmath.MPContext()  # 53 bits
    items = []  # (approx, S, R, mu, sigma)
    for S in range(1, S_max + 1):
        for R in range(1, R_max + 1):
            mu, sigma = p**S + p**R - 1, S + 2 * R
            items.append((float(sigma * ctx.log(p) / ctx.log(mu)), S, R, mu, sigma))

    def le(x, y):  # sigma_x ln p / ln mu_x <= sigma_y ln p / ln mu_y
        return y[3] ** x[4] <= x[3] ** y[4]

    items.sort(key=lambda it: it[0])
    if not all(le(x, y) for x, y in zip(items, items[1:])):
        cmp = lambda x, y: 0 if x[3:] == y[3:] else -1 if le(x, y) else 1  # noqa: E731
        items.sort(key=functools.cmp_to_key(cmp))
    return [(S, R) for _, S, R, _, _ in items]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 24), st.integers(1, 24))
def test_density_scan_order_matches_exact_sort(p, S_max, R_max):
    scan = gk_density_scan(p, S_max, R_max)
    assert [(S, R) for _, S, R in scan.entries] == _reference_order(p, S_max, R_max)


def test_density_scan_order_when_enclosures_overlap(monkeypatch):
    # at 4 bits most compared enclosures overlap, so exact powers decide them
    real_context, real_cmp = analytics.interval_context, analytics._cmp_cells
    seen = {"all": 0, "overlap": 0}

    def spy(x, y):  # cells are (lo, hi, mu, sigma, ...)
        seen["all"] += 1
        seen["overlap"] += not (x[1] < y[0] or y[1] < x[0])
        return real_cmp(x, y)

    monkeypatch.setattr(analytics, "interval_context", lambda prec: real_context(4))
    monkeypatch.setattr(analytics, "_cmp_cells", spy)
    for p, m in [(2, 12), (3, 9), (7, 6)]:
        scan = gk_density_scan(p, m, m)
        assert [(S, R) for _, S, R in scan.entries] == _reference_order(p, m, m)
    assert seen["overlap"] > seen["all"] / 2


def test_density_scan_single_cell_edge_gap():
    scan = gk_density_scan(2, 1, 1, interval=(1.1, 2.9))
    assert len(scan.entries) == 1
    assert abs(scan.lambda_min - 1.892789260714372) < 1e-12
    # the gap is measured to the interval edges: 2.9 - lambda dominates
    assert abs(scan.max_gap - (2.9 - scan.lambda_min)) < 1e-9


def test_density_scan_input_validation():
    with pytest.raises(ValueError):
        gk_density_scan(2, 0, 3)
    with pytest.raises(ValueError):
        gk_density_scan(2, 3, 3, interval=(2.0, 1.0))


# the last passes Miller-Rabin to the twelve prime bases through 37
@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 399_165_290_221 * 798_330_580_441])
def test_density_scan_refuses_non_prime(p):
    with pytest.raises(TupleRuleError, match=f"p must be prime, got {p}"):
        gk_density_scan(p, 3, 3)


def test_density_scan_refuses_oversized_grid():
    assert analytics.SCAN_CELL_CAP >= 128 * 128  # admits --max 128
    with pytest.raises(ValueError, match="grid too large"):
        gk_density_scan(2, 1, analytics.SCAN_CELL_CAP + 1)


def test_period_numbers_come_from_the_tuple():
    # mu is the weight W_q over one period; an entry past the size limit is
    # refused by the tuple instead of hanging in p**S
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    rep = gk_periodic(tup)
    assert (rep.mu, rep.sigma, rep.period) == (tup.pivot_weight(2), 7, 2)
    huge = ParameterTuple.periodic(3, [(2, 1), (10**12, 1)])
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        gk_periodic(huge)
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        check_growth_sandwich(huge, growth_table(huge, 1))


# ---------------------------------------------------------------------------
# sandwich bounds for periodic rules


def test_sandwich_small_table():
    t = growth_table(TUP2, 243)
    rep = check_growth_sandwich(TUP2, t)
    assert rep.passed
    assert rep.counts()["pass"] == 2 * 243


def test_sandwich_periodic_rule():
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    rep = check_growth_sandwich(tup, growth_table(tup, 200))
    assert rep.passed


def test_sandwich_golden_bytes():
    # digests taken while check records were frozen dataclasses
    tup = ParameterTuple.periodic(2, [(1, 1), (2, 1)])
    rep = check_growth_sandwich(tup, growth_table(tup, 5000))
    assert hashlib.sha256(rep.to_json_lines().encode()).hexdigest() == (
        "90b9d6c861c9b030cb41219ab1ed858b8d0bddff5b7178374aad884c2301202c"
    )
    assert hashlib.sha256(rep.summary().encode()).hexdigest() == (
        "e6531a01212b7bafadfdf241973ffa8f65b1244b12c7bbf195dc6e7ac3a282f5"
    )


def test_sandwich_rejects_mismatched_table():
    t = growth_table(TUP2, 20)
    with pytest.raises(ValueError):
        check_growth_sandwich(ParameterTuple.constant(3, 1, 1), t)


def _sandwich_per_row(tup, table):
    """The sandwich suite decided one row at a time: the oracle of the
    segment walk in ``check_growth_sandwich``."""
    _, mu, sigma = analytics._period(tup)
    ps = tup.p**sigma
    rep = VerificationReport(suite="growth-sandwich")
    mu_pow, n, lower_rhs, upper = 1, 0, 1, ps + 1
    for m, total in zip(table.ms, table.totals):
        while mu_pow < m:
            mu_pow *= mu
            n += 1
            lower_rhs *= ps
            upper = lower_rhs * ps + lower_rhs + sigma * n
        rep.check(
            "sandwich-upper", total <= upper, witness=lambda: f"total={total} exceeds {upper}",
            m=m, n=n,
        )
        rep.check(
            "sandwich-lower",
            total * ps**3 >= lower_rhs,
            witness=lambda: f"total={total} * p^(3 sigma) below p^(sigma n)={lower_rhs}",
            m=m,
            n=n,
        )
    return rep


def _assert_same_report(got, want):
    assert got.to_json_lines() == want.to_json_lines()
    assert got.summary() == want.summary()
    assert got.counts() == want.counts()
    assert got.failures() == want.failures()
    assert got.passed == want.passed


def _with_total(table, i, total):
    """The table with row i's total replaced: unchecked, as a fault."""
    totals = list(table.totals)
    totals[i] = total
    cols = (table.ms, table.first, table.second, table.power_first, table.power_second, totals)
    return GrowthTable._of_columns(table.p, table.tuple_spec, cols)


def _sandwich_bounds(tup, m):
    """(upper, lower_rhs, p^(3 sigma)) of the sandwich at weight m."""
    _, mu, sigma = analytics._period(tup)
    n = 0
    while mu**n < m:
        n += 1
    ps = tup.p**sigma
    return ps ** (n + 1) + ps**n + sigma * n, ps**n, ps**3


_PERIODIC2 = ParameterTuple.periodic(2, [(1, 1), (2, 1)])  # mu = 15


# the first row, both sides of the ladder boundaries 15 and 225, the last row
@pytest.mark.parametrize("m", [1, 15, 16, 225, 226, 3000])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_sandwich_fault_matches_per_row_oracle(m, side):
    upper, lower_rhs, p3s = _sandwich_bounds(_PERIODIC2, m)
    # just past the bound: one more than upper, or the largest total whose
    # p^(3 sigma) multiple stays below lower_rhs
    bad = upper + 1 if side == "upper" else (lower_rhs - 1) // p3s
    table = _with_total(growth_table(_PERIODIC2, 3000), m - 1, bad)
    want = _sandwich_per_row(_PERIODIC2, table)
    assert [r.check_id for r in want.failures()] == [f"sandwich-{side}"]
    assert dict(want.failures()[0].params)["m"] == m
    _assert_same_report(check_growth_sandwich(_PERIODIC2, table), want)


_SANDWICH_SPECS = [
    "constant:1,1",
    "constant:2,1",
    "constant:1,2",
    "periodic:1,1;2,1",
    "periodic:2,1;1,2",
    "periodic:1,2;1,1;2,1",
]


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    spec=st.sampled_from(_SANDWICH_SPECS),
    rows=st.integers(1, 3000),
    data=st.data(),
)
def test_sandwich_matches_per_row_oracle(p, spec, rows, data):
    tup = ParameterTuple.from_spec(p, spec)
    table = growth_table(tup, rows)
    if data.draw(st.booleans(), label="checkpoints"):
        weights = data.draw(st.sets(st.integers(1, rows), min_size=1, max_size=40), label="weights")
        table = GrowthTable(p, tup.spec, [table.rows[m - 1] for m in sorted(weights)])
    fault = data.draw(
        st.none() | st.tuples(st.integers(0, len(table.ms) - 1), st.integers(-10**9, 10**9)),
        label="fault",
    )
    if fault is not None:
        i, delta = fault
        table = _with_total(table, i, table.totals[i] + delta)
    _assert_same_report(check_growth_sandwich(tup, table), _sandwich_per_row(tup, table))


# ---------------------------------------------------------------------------
# certified infinite-product enclosures


def test_theta_enclosure_power_rule():
    tup = ParameterTuple.kappa(2, "1/2")
    lo, hi = theta_bounds(tup)
    # true value: product of (1 + 2^-i) over i >= 0
    target = 1.0
    for i in range(200):
        target *= 1.0 + 2.0**-i
    assert float(lo) <= target <= float(hi)
    assert Fraction(0) < hi - lo < Fraction(1, 2)


def test_theta_enclosure_tower_rule():
    tup = ParameterTuple.qkappa(2, 1, "1")
    lo, hi = theta_bounds(tup)
    # entries after S_0 = 1 are huge, so the product is barely above 2
    assert Fraction(2) <= lo <= hi < Fraction(21, 10)
    # reference: the partial product through I = 5, one factor at a time
    ref = Fraction(1)
    for i in range(6):
        ref *= 1 + Fraction(tup.p, tup.powers(i)[0])
    assert theta_bounds(tup, 5)[0] == ref


def test_results_ignore_callers_mpmath_settings():
    # fresh tuples each time: materialized entries are cached per tuple
    def compute():
        reports = [gk_periodic(ParameterTuple.periodic(3, [(1, 2), (2, 1)])),
                   gk_periodic(ParameterTuple.constant(2, 40, 1))]
        return (
            ParameterTuple.qkappa(2, 2, 4).pairs(7),
            gk_density_scan(2, 16, 16),
            [(rep, rep.lam_interval()) for rep in reports],
            theta_bounds(ParameterTuple.from_spec(2, "qkappa:1,1")),
        )

    default = compute()
    saved = (mpmath.mp.prec, mpmath.iv.prec)
    try:
        mpmath.mp.prec, mpmath.iv.prec = 20, 300
        assert compute() == default
        assert (mpmath.mp.prec, mpmath.iv.prec) == (20, 300)
    finally:
        mpmath.mp.prec, mpmath.iv.prec = saved


def _plain_theta(tup, target_index):
    """theta_bounds as plain Fraction arithmetic: reduce num/den, then multiply."""
    num, den, tail, _ = analytics._theta_partial(tup, target_index)
    lo = Fraction(num, den)
    return lo, lo * (1 + 2 * tail)


@pytest.mark.parametrize(
    "p, spec, target_indices",
    [(p, f"kappa:{k}", (0, 4, 11)) for p in (2, 3, 5, 7) for k in ("1/2", "1/3", "2/3")]
    # at p = 2 the tower's entries stay small through index 5
    + [(2, "qkappa:1,1", (0, 4))],
)
def test_theta_bounds_equal_plain_fractions(p, spec, target_indices):
    tup = ParameterTuple.from_spec(p, spec)
    for target_index in target_indices:
        got, want = theta_bounds(tup, target_index), _plain_theta(tup, target_index)
        for g, w in zip(got, want):
            assert (g.numerator, g.denominator) == (w.numerator, w.denominator)


def test_theta_bounds_tower_rule_p3_takes_no_huge_gcd(monkeypatch):
    # the tail's denominator has about 750,000 bits here; Fraction reduction
    # of lo and lo * (1 + 2T) ran gcds of two such integers for about 23 s
    tup = ParameterTuple.qkappa(3, 1, 1)
    num, den, _, _ = analytics._theta_partial(tup, 0)
    gcd, sizes = math.gcd, []

    def spy(*args):
        sizes.append(min((abs(a).bit_length() for a in args), default=0))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    lo, hi = theta_bounds(tup)
    monkeypatch.undo()
    assert max(sizes, default=0) < 10_000
    # lo equals num/den, and is reduced: its denominator is a power of 3
    # and its numerator is prime to 3
    assert lo.numerator * den == num * lo.denominator
    assert lo.numerator % 3 and 3 ** round(math.log(lo.denominator, 3)) == lo.denominator
    assert Fraction(2) <= lo < hi < Fraction(21, 10)


def test_theta_needs_unbounded_rule():
    with pytest.raises(ValueError, match="power-law or tower"):
        theta_bounds(TUP2)


# ---------------------------------------------------------------------------
# quasilinear bounds for slowly growing rules


def test_quasilinear_bounds_power_rule():
    tup = ParameterTuple.kappa(2, "1/2")
    t = growth_table(tup, 135)
    rep = check_quasilinear_bounds(tup, t)
    assert rep.passed
    ids = {r.check_id for r in rep.records}
    assert {"quasilinear-upper", "quasilinear-f1", "quasilinear-lower"} <= ids


def test_quasilinear_bounds_tower_rule_checkpoints():
    tup = ParameterTuple.qkappa(2, 1, "1")
    w1, w2 = tup.pivot_weight(1), tup.pivot_weight(2)
    weights = [2, 3, w1, w1 + 1, w2 - 1, w2, w2 + 1]
    t = growth_table(tup, max(weights), weights=weights)
    assert check_quasilinear_bounds(tup, t).passed


@pytest.mark.parametrize("spec", ["kappa:1/2", "qkappa:1,1"])
def test_quasilinear_lower_matches_theta_enclosure(spec):
    # the suite compares against theta's partial product as an unreduced
    # num/den; theta_bounds' reduced lower end is the reference
    tup = ParameterTuple.from_spec(2, spec)
    weights = [2, 3, 10, 100, 1000, 10**6, 10**40]
    t = growth_table(tup, weights[-1], weights=weights)
    rep = check_quasilinear_bounds(tup, t)
    lower = [r for r in rep.records if r.check_id == "quasilinear-lower"]
    n_last = dict(lower[-1].params)["n"]
    theta_lo, _ = theta_bounds(tup, target_index=n_last + 2)
    rows = {row[0]: row for row in t.rows}
    for r in lower:
        m, n = dict(r.params)["m"], dict(r.params)["n"]
        m0 = tup.pivot_weight(n - 1)
        target = (m // m0 - tup.p + 1) * m0 * tup.p ** (2 * (n - 1))
        ok = target <= 0 or Fraction(rows[m][2]) * theta_lo >= target
        assert r.status == ("pass" if ok else "fail")


def test_quasilinear_tower_rule_p3_reduces_no_huge_fraction(monkeypatch):
    # theta's partial product holds powers of about 840,000 bits here;
    # reducing it as a Fraction (a gcd of two such integers) took about 25 s,
    # while the suite's comparison needs no reduction at all
    tup = ParameterTuple.qkappa(3, 1, 1)
    t = growth_table(tup, 10**8, weights=[2, 3, 10, 1000, 10**8])
    gcd, sizes = math.gcd, []

    def spy(*args):
        sizes.append(min((abs(a).bit_length() for a in args), default=0))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    assert check_quasilinear_bounds(tup, t).passed
    assert max(sizes, default=0) < 10_000


def test_quasilinear_requires_unit_second_entry():
    tup = ParameterTuple.constant(2, 1, 2)
    t = growth_table(tup, 10)
    with pytest.raises(ValueError, match="R"):
        check_quasilinear_bounds(tup, t)


def test_quasilinear_rejects_bounded_rules():
    t = growth_table(TUP2, 10)
    with pytest.raises(ValueError, match="power-law or tower"):
        check_quasilinear_bounds(TUP2, t)


# ---------------------------------------------------------------------------
# universal cubic ceiling


def test_cubic_bounds_various_rules():
    for tup in [
        TUP2,
        ParameterTuple.constant(3, 2, 1),
        ParameterTuple.explicit(5, [(1, 2), (2, 1), (1, 1), (3, 2), (1, 3), (2, 2)]),
    ]:
        weights = sorted(
            {2, tup.pivot_weight(2), tup.pivot_weight(3), tup.pivot_weight(3) + 1}
        )
        assert check_cubic_bounds(tup, weights).passed


# ---------------------------------------------------------------------------
# slope estimation from tables


def test_fit_recovers_exponent():
    t = growth_table(TUP2, 2187)
    fit = estimate_exponent(t, level="gk")
    lam = gk_periodic(TUP2).lam_float
    assert abs(fit.beta - lam) < 0.1
    assert fit.rows_used >= 8
    assert "beta" in fit.describe()


def test_fit_scale_invariance():
    t = growth_table(TUP2, 1200)
    scaled = type(t)(
        p=t.p,
        tuple_spec=t.tuple_spec,
        rows=[(m, 7 * a, 7 * b, 7 * c, 7 * d, 7 * g) for m, a, b, c, d, g in t.rows],
    )
    for level in ("gk", 1):
        base = estimate_exponent(t, level=level)
        resc = estimate_exponent(scaled, level=level)
        assert abs(base.beta - resc.beta) < 1e-9


def test_fit_window_guards():
    small = growth_table(TUP2, 6)
    with pytest.raises(ValueError, match="window too small"):
        estimate_exponent(small, level="gk")
    narrow = growth_table(TUP2, 60)  # 60 rows but under two decades of spread
    with pytest.raises(ValueError, match="window too small"):
        estimate_exponent(narrow, level="gk")


def test_fit_level_validation():
    t = growth_table(TUP2, 2187)
    with pytest.raises(ValueError, match="level"):
        estimate_exponent(t, level="bogus")
    with pytest.raises(ValueError, match="level"):
        estimate_exponent(t, level=-1)
    fit0 = estimate_exponent(t, level=0)
    assert math.isfinite(fit0.beta)


# ---------------------------------------------------------------------------
# tail certificates and their fall-backs


def test_power_tail_falls_back_while_its_ratio_test_fails():
    # kappa = 3/4: D = 3 and S_9 = floor(10^(1/3)) = 2, so the ratio
    # (4/3)^3 / 2 exceeds 1 at I = 8; the search doubles past it
    tup = ParameterTuple.kappa(2, "3/4")
    assert analytics._kappa_tail(tup, 8) is None
    assert analytics._kappa_tail(tup, 4096)[0] <= Fraction(1, 2)
    lo, hi = theta_bounds(tup)
    assert 1 < lo < hi


def test_tower_tail_falls_back_until_increments_separate():
    # q = 1, kappa = 3 at p = 2: r = 2^(2/3) and D_2 = 2^(8/3) - 4, so
    # (r - 1) D_2 = 1.38... < 2 at I = 3; the certificate holds at I = 6
    tup = ParameterTuple.qkappa(2, 1, 3)
    assert analytics._qkappa_tail(tup, 3) is None
    assert analytics._qkappa_tail(tup, 6) is not None


@pytest.mark.parametrize("kappa", ["2", "5/2", "3"])
def test_tower_tail_certified_for_slow_towers(kappa):
    # the increment ratio p^(2/kappa) is at most 2 here, and the rule's
    # entries still rise by at least 1 from some index on, as certified
    tup = ParameterTuple.qkappa(2, 1, kappa)
    num, den, tail, _ = analytics._theta_partial(tup, 0)
    assert 0 < tail <= Fraction(1, 2)
    S = [s for s, _ in tup.pairs(12)]
    assert all(b > a for a, b in zip(S[4:], S[5:]))


@pytest.mark.parametrize("kappa", ["9/10", "5/6"])
def test_refused_power_tail_materializes_no_entries_up_to_the_bound(kappa):
    # each S_{I+1} the search reads comes from the rule's closed form, so
    # refusing at index 2^19 leaves the entries 0..I unmaterialized
    tup = ParameterTuple.kappa(2, kappa)
    with pytest.raises(ValueError, match="not certified up to index 524288"):
        theta_bounds(tup)
    assert tup.materialized_length < 100


def test_theta_bounds_of_a_long_partial_product_in_lowest_terms():
    # kappa:4/5 at p = 2 is certified at I = 2^18, where the partial product
    # has about 4.5 million bits
    tup = ParameterTuple.kappa(2, "4/5")
    lo, hi = theta_bounds(tup)
    assert lo.numerator % 2 and lo.denominator & (lo.denominator - 1) == 0
    S = [s for s, _ in tup.pairs(2**18 + 1)]
    num = analytics._product([2**s + 2 for s in S])
    assert lo.numerator << sum(S) == num * lo.denominator
    assert 1 < lo < hi


def test_tail_search_stops_at_its_index_bound():
    with pytest.raises(ValueError, match="not certified up to index"):
        analytics._theta_partial(ParameterTuple.kappa(2, "1/2"), analytics.MAX_TAIL_INDEX + 1)


def test_partial_product_equals_the_factor_by_factor_product():
    tup = ParameterTuple.kappa(3, "2/3")
    num, den, _, _ = analytics._theta_partial(tup, 100)
    ref_num = ref_den = 1
    for i in itertools.count():
        S = tup.materialize(i)[0]
        ref_num, ref_den = ref_num * (3**S + 3), ref_den * 3**S
        if ref_num * den >= num * ref_den:  # the partial products increase
            break
    assert i >= 100 and ref_num * den == num * ref_den
    # in lowest terms: den is a power of 3 and num is prime to 3
    assert num % 3 and 3 ** round(math.log(den, 3)) == den
    assert analytics._product([]) == 1 and analytics._product([7]) == 7


def test_exponent_range_check_catches_a_wrong_period(monkeypatch):
    # a valid rule cannot reach it: p^S + p^R - 1 <= p^(S + 2R) <= (p^S + p^R - 1)^3
    monkeypatch.setattr(analytics, "_period", lambda tup: (1, 3, 100))
    with pytest.raises(RuntimeError, match="falls outside"):
        gk_periodic(TUP2)
