"""Growth analytics over exact counting data.

Closed-form growth exponents for periodic rules, certified density scans
over (S, R) grids, explicit finite-weight growth bound chains, and
diagnostic asymptotic-exponent fits read off growth tables.

Every pass/fail decision here is either an exact big-integer / rational
comparison or an outward-rounded interval comparison, so a reported pass
is certified rather than an artifact of floating-point rounding.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .closure import VerificationReport
from .monomials import GrowthTable, count_descriptors, family_totals
from .params import ParameterTuple, _require_prime, interval_context, tower


def _float_down(x) -> float:
    """Largest float <= the lower endpoint of the mpmath interval x."""
    return libmp.to_float(x._mpi_[0], rnd=libmp.round_floor)


def _float_up(x) -> float:
    """Smallest float >= the upper endpoint of the mpmath interval x."""
    return libmp.to_float(x._mpi_[1], rnd=libmp.round_ceiling)


# -- closed-form growth exponent for periodic rules ---------------------------


def _exponent_context(mu: int) -> mpmath.MPIntervalContext:
    """A private interval context fine enough for sigma ln p / ln mu' at every mu' <= mu."""
    return interval_context(max(120, mu.bit_length() + 32))


def _in_range(p: int, mu: int, sigma: int) -> bool:
    """Whether sigma ln p / ln mu lies in [1, 3]: mu <= p^sigma <= mu^3, exactly."""
    return mu <= p**sigma <= mu**3


@dataclass(frozen=True)
class GKReport:
    """Growth exponent of a periodic rule in closed form.

    weight_factor is the total-weight multiplier accumulated over one full
    period of the rule; letter_budget is the number of base-p digits one
    period contributes per monomial position.  The growth exponent equals
    letter_budget * ln p / ln weight_factor; it always lies in [1, 3],
    which the constructor certifies by exact integer comparisons.
    """

    p: int
    tuple_spec: str
    mu: int  # weight multiplier over one period
    sigma: int  # sum of S_i + 2 R_i over one period
    lam: str  # sigma * ln p / ln mu, rendered as a decimal string
    period: int

    @property
    def lam_float(self) -> float:
        return float(self.lam)

    def lam_interval(self) -> tuple[float, float]:
        """Certified enclosure of the exponent as a float pair."""
        ctx = _exponent_context(self.mu)
        val = self.sigma * ctx.log(self.p) / ctx.log(self.mu)
        return (_float_down(val), _float_up(val))

    def describe(self) -> str:
        try:
            mu = str(self.mu)
        except ValueError:  # past the interpreter's int-to-str digit limit
            mu = f"<{self.mu.bit_length()}-bit integer>"
        return (
            f"rule {self.tuple_spec} (p={self.p}): mu={mu} "
            f"sigma={self.sigma} exponent={self.lam}"
        )


def _period(tup: ParameterTuple) -> tuple[int, int, int]:
    """(q, mu, sigma) of a constant or periodic rule with period q: mu = W_q is
    the weight multiplier over one period, sigma the sum of S_i + 2 R_i."""
    if (q := tup.period) is None:
        raise ValueError(
            "closed-form growth exponent requires a constant or periodic rule; "
            f"got kind {tup.kind!r}"
        )
    sigma = sum(S + 2 * R for S, R in tup.pairs(q))
    return q, tup.pivot_weight(q), sigma


def _render_ratio_of_logs(num: int, base_num: int, base_den: int) -> str:
    """num * ln(base_num) / ln(base_den) as a 12-significant-digit string."""
    ctx = mpmath.MPContext()
    ctx.dps = 40
    return ctx.nstr(num * ctx.log(base_num) / ctx.log(base_den), 12)


def gk_periodic(tup: ParameterTuple) -> GKReport:
    """Closed-form growth exponent report for a constant or periodic rule."""
    period, mu, sigma = _period(tup)
    p = tup.p
    if not _in_range(p, mu, sigma):
        raise RuntimeError(
            f"certified range check failed: exponent for {tup.spec} "
            "falls outside [1, 3]"
        )
    return GKReport(
        p=p,
        tuple_spec=tup.spec,
        mu=mu,
        sigma=sigma,
        lam=_render_ratio_of_logs(sigma, p, mu),
        period=period,
    )


# -- density scan over constant (S, R) grids ----------------------------------


@dataclass
class DensityScan:
    """Growth exponents of every constant rule on an (S, R) grid, in exact order."""

    p: int
    S_max: int
    R_max: int
    interval: tuple[float, float]
    entries: list[tuple[float, int, int]]  # (approx exponent, S, R), ascending
    all_in_range: bool  # every exponent certified inside [1, 3]
    max_gap: float  # certified upper bound on the widest uncovered stretch

    @property
    def lambda_min(self) -> float:
        return self.entries[0][0]

    @property
    def lambda_max(self) -> float:
        return self.entries[-1][0]


# Most cells a density scan takes: the 128 x 128 grid.  Each cell's enclosure
# costs more as the grid's largest mu grows (256 x 256 takes seconds).
SCAN_CELL_CAP = 128 * 128


def _cmp_cells(x, y) -> int:
    """Order of two scan cells (lo, hi, mu, sigma, ...), where [lo, hi] encloses
    the exponent sigma ln p / ln mu scaled to integers: disjoint enclosures
    decide, overlapping ones compare mu_y**sigma_x with mu_x**sigma_y exactly."""
    if x[1] < y[0]:
        return -1
    if y[1] < x[0]:
        return 1
    lhs, rhs = y[2] ** x[3], x[2] ** y[3]
    return (lhs > rhs) - (lhs < rhs)


def gk_density_scan(
    p: int,
    S_max: int,
    R_max: int,
    interval: tuple[float, float] = (1.1, 2.9),
) -> DensityScan:
    """Exponents of all constant rules with 1 <= S <= S_max, 1 <= R <= R_max.

    One stable sort orders the cells by interval enclosures at the grid's
    largest mu, with exact powers only where two overlap (``_cmp_cells``);
    exact ties keep grid order.  The gap statistic is an outward-rounded
    upper bound on the widest stretch of the target interval containing no
    exponent, so max_gap <= g certifies density at resolution g.  Refuses a
    non-prime p, grids above SCAN_CELL_CAP cells and an interval other than
    a finite a < b.
    """
    if S_max < 1 or R_max < 1:
        raise ValueError("grid bounds must be >= 1")
    _require_prime(p)
    if S_max * R_max > SCAN_CELL_CAP:
        raise ValueError(
            f"grid too large: {S_max} x {R_max} = {S_max * R_max} cells "
            f"exceed cap {SCAN_CELL_CAP}"
        )
    a, b = float(interval[0]), float(interval[1])
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval must satisfy a < b with finite ends")

    ctx = _exponent_context(p**S_max + p**R_max - 1)  # mu grows with S and R
    prec, log_p = ctx.prec, ctx.log(p)
    cells = []  # (lo, hi, mu, sigma, S, R, enclosure), lo and hi scaled by 2^prec
    for S in range(1, S_max + 1):
        for R in range(1, R_max + 1):
            mu, sigma = p**S + p**R - 1, S + 2 * R
            val = sigma * log_p / ctx.log(mu)
            lo, hi = (libmp.to_int(libmp.mpf_shift(end, prec), rnd)
                      for end, rnd in zip(val._mpi_, (libmp.round_floor, libmp.round_ceiling)))
            cells.append((lo, hi, mu, sigma, S, R, val))
    all_in_range = all(_in_range(p, mu, sigma) for _, _, mu, sigma, *_ in cells)
    cells.sort(key=functools.cmp_to_key(_cmp_cells))

    vals = [cell[6] for cell in cells]
    gaps = [0.0]
    for u, v in zip(vals, vals[1:]):
        # count the stretch only when it can intersect the target interval
        if _float_up(v) > a and _float_down(u) < b:
            gaps.append(_float_up(v - u))
    gaps.append(max(0.0, _float_up(vals[0]) - a))
    gaps.append(max(0.0, b - _float_down(vals[-1])))

    return DensityScan(
        p=p,
        S_max=S_max,
        R_max=R_max,
        interval=(a, b),
        entries=[  # the float nearest each enclosure's midpoint
            (libmp.to_float(val.mid._mpi_[0], rnd=libmp.round_nearest), S, R)
            for *_, S, R, val in cells
        ],
        all_in_range=all_in_range,
        max_gap=max(gaps),
    )


# -- certified enclosure of the tail product theta ----------------------------


def _kappa_tail(tup: ParameterTuple, I: int) -> tuple[Fraction, int] | None:
    """Upper bound for sum_{i>I} p^(1-S_i) under the power-law rule, and a
    cofactor c: the bound's denominator is a power of p times a divisor of c.

    The rule S_i = floor((i+1)^d) repeats each value s for at most
    (s+1)^(1/d) - s^(1/d) + 1 <= (s+1)^ceil(1/d) indices (as s^(1/d) >= 1),
    so the tail is at most sum_{s >= s_min} (s+1)^D p^(1-s) with
    D = ceil(1/d), which a ratio test bounds by a geometric series.
    """
    p = tup.p
    kap = tup.params["kappa"]
    d = Fraction(1) / kap - 1  # > 0 since 0 < kappa < 1
    inv_d = Fraction(1) / d
    D = -((-inv_d.numerator) // inv_d.denominator)  # ceil(1/d)
    # the rule's closed form: no entry before I + 1 is materialized
    s_min = tup._rule_pair(I + 1)[0]
    rho = Fraction((s_min + 2) ** D, (s_min + 1) ** D * p)
    if rho >= 1:
        return None
    first = Fraction((s_min + 1) ** D * p, p**s_min)
    return first / (1 - rho), (1 - rho).numerator


def _qkappa_tail(tup: ParameterTuple, I: int) -> tuple[Fraction, int] | None:
    """Upper bound for sum_{i>I} p^(1-S_i) under the tower rule, and the
    cofactor p - 1 of its denominator (see ``_kappa_tail``).

    With G(n) = exp(H(n+2)) and H(t) = exp^(q-1)(lam*t) the rule's partial
    sums are floor(G(n)) + 1, so S_n lies within 1 of D_n = G(n) - G(n-1)
    for n >= 2.  H is convex and increasing, so D_{n+1} >= r D_n for n >= I,
    with r = exp(H(I+2) - H(I+1)), and D_n >= D_{I-1}.  Once (r - 1) D_{I-1}
    >= 2, S_{n+1} - S_n > D_{n+1} - D_n - 2 >= 0 for n > I: the S values
    rise past I, and the tail is at most p^(1-S_{I+1}) * p/(p-1).
    """
    p = tup.p
    q, kap = tup.params["q"], tup.params["kappa"]
    for prec in (80, 160, 320, 640):
        iv = interval_context(prec)
        inner, inner_next = (tower(iv, p, kap, t, q - 1) for t in (I + 1, I + 2))
        delta_prev = iv.exp(inner) - tower(iv, p, kap, I, q)  # D_{I-1}
        if ((iv.exp(inner_next - inner) - 1) * delta_prev).a >= 2:
            return Fraction(p**2, (p - 1) * tup.powers(I + 1)[0]), p - 1
    return None


# Largest index I up to which theta_bounds searches for a tail certificate;
# kappa:4/5 at p = 2 is certified at I = 262,144.
MAX_TAIL_INDEX = 1 << 19


def _product(factors: list[int]) -> int:
    """The product of factors, multiplied pairwise in rounds, so that only
    factors of similar size meet (one at a time takes quadratic time)."""
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def _theta_partial(tup: ParameterTuple, I: int) -> tuple[int, int]:
    """(num, den): theta's partial product prod_{i<=I} (1 + p^(1-S_i)) in lowest
    terms; den is a power of p."""
    p = tup.p
    # prod (1 + p/p^S_i) = prod (p^S_i + p) / prod p^S_i, and p^S_i + p = p f_i with
    # f_i = p^(S_i - 1) + 1 prime to p unless f_i = p (p = 2, S_i = 1): dividing those
    # p's out leaves num/den in lowest terms, with no big gcd or division.  The S_i
    # take few distinct values, so each f_s is raised to its count n_s once.
    counts = collections.Counter(s for s, _ in tup.pairs(I + 1))
    f = {s: p ** (s - 1) + 1 for s in counts}
    e = sum((s - 1 - (f[s] == p)) * n for s, n in counts.items())
    num = _product([f[s] ** n for s, n in counts.items() if f[s] != p])
    return num * p ** max(-e, 0), p ** max(e, 0)


# Fraction(num, den) for num and den > 0 already in lowest terms, without the
# gcd that Fraction(num, den) takes (a private constructor, spelled per version).
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or functools.partial(
    Fraction, _normalize=False
)


def _lowest_terms(num: int, den: int, p: int, c: int) -> Fraction:
    """num/den in lowest terms, for den > 0 a power of p times a divisor of c.

    The common factor is p^k times a divisor of c, so it comes from
    dividing out p while both are divisible and a gcd with the small c:
    no gcd of two integers of millions of bits, as in Fraction(num, den).
    """
    while num % p == 0 and den % p == 0:
        num //= p
        den //= p
    g = math.gcd(den, math.gcd(num, c))
    return _coprime_fraction(num // g, den // g)


def theta_bounds(tup: ParameterTuple, target_index: int = 0) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of prod_{i>=0} (1 + p^(1-S_i)).

    Returns (lo, hi) with lo <= product <= hi.  lo is the partial product
    through an index I >= target_index; the remaining factors are bounded
    via sum_{i>I} p^(1-S_i) =: T <= 1/2, using 1 + x <= e^x and e^T <= 1+2T.
    Only rules whose S_i provably diverge (power-law and tower rules) admit
    such a certificate.  I doubles from max(target_index, 8 or 3) until the
    tail is certified; ValueError once it passes MAX_TAIL_INDEX.
    """
    if tup.kind == "kappa":
        tail_fn, I = _kappa_tail, 8
    elif tup.kind == "qkappa":
        tail_fn, I = _qkappa_tail, 3
    else:
        raise ValueError(
            "certified tail bounds require a power-law or tower rule; "
            f"got kind {tup.kind!r}"
        )
    I = max(I, target_index)
    while I <= MAX_TAIL_INDEX:
        found = tail_fn(tup, I)
        if found is not None and found[0] <= Fraction(1, 2):
            break
        I *= 2
    else:
        raise ValueError(f"tail of rule {tup.spec} not certified up to index {MAX_TAIL_INDEX}")
    # T's denominator is a power of p times a divisor of c (see the tail
    # functions), and so is the factor's: c still covers the cofactor
    tail, c = found
    lo = _coprime_fraction(*_theta_partial(tup, I))
    factor = 1 + 2 * tail
    hi = _lowest_terms(
        lo.numerator * factor.numerator, lo.denominator * factor.denominator, tup.p, c
    )
    return lo, hi


# -- finite-weight growth bound chains -----------------------------------------


def _require_same_rule(tup: ParameterTuple, table: GrowthTable) -> None:
    if table.p != tup.p or table.tuple_spec != tup.spec:
        raise ValueError(
            f"table was computed for p={table.p} rule {table.tuple_spec!r}, "
            f"not p={tup.p} rule {tup.spec!r}"
        )


def check_growth_sandwich(tup: ParameterTuple, table: GrowthTable) -> VerificationReport:
    """Two-sided growth bounds for a periodic rule, exactly, decided per
    ladder segment.

    With mu and sigma the per-period weight multiplier and digit budget and
    n = n(m) the least n with mu^n >= m, every row must satisfy

        total(m) * p^(3*sigma) >= p^(sigma*n)                (lower)
        total(m) <= p^(sigma*(n+1)) + p^(sigma*n) + sigma*n  (upper)

    as plain integer comparisons.  Both bounds are constant on a segment,
    the rows with mu^(n-1) < m <= mu^n, so its largest and smallest totals
    decide all of its rows, monotone or not.  A passing segment is one
    ``add_range`` entry; a failing one is checked row by row, so its
    records carry their witnesses.
    """
    _, mu, sigma = _period(tup)
    _require_same_rule(tup, table)
    p = tup.p
    rep = VerificationReport(suite="growth-sandwich")
    ps = p**sigma
    p3s = ps**3
    ms, totals = table.ms, table.totals
    # n only grows over the ascending rows, so the bounds move with it
    mu_pow, n, lower_rhs, upper = 1, 0, 1, ps + 1
    i = 0
    while i < len(ms):
        while mu_pow < ms[i]:
            mu_pow *= mu
            n += 1
            lower_rhs *= ps
            upper = lower_rhs * ps + lower_rhs + sigma * n
        j = bisect.bisect_right(ms, mu_pow, i)
        segment = totals[i:j]
        if max(segment) <= upper and min(segment) * p3s >= lower_rhs:
            rep.add_range(("sandwich-upper", "sandwich-lower"), ms[i:j], n=n)
        else:
            for m, total in zip(ms[i:j], segment):
                rep.check(
                    "sandwich-upper",
                    total <= upper,
                    witness=lambda: f"total={total} exceeds {upper}",
                    m=m,
                    n=n,
                )
                rep.check(
                    "sandwich-lower",
                    total * p3s >= lower_rhs,
                    witness=lambda: f"total={total} * p^(3 sigma) below p^(sigma n)={lower_rhs}",
                    m=m,
                    n=n,
                )
        i = j
    return rep


def _require_unit_second_bound(tup: ParameterTuple) -> None:
    if tup.pattern is None:
        return  # the kappa and qkappa rules fix R_i = 1 by construction
    if any(r != 1 for _, r in tup.pattern):
        raise ValueError("bounds require R≡1")
    raise ValueError(
        "quasilinear bounds require a power-law or tower rule; "
        f"got kind {tup.kind!r}"
    )


def _ladder_positions(tup: ParameterTuple, weights: list[int]) -> list[int]:
    """For each weight m >= 2 (ascending) the n with wt(v_{n-1}) < m <= wt(v_n)."""
    out = []
    n = 1
    for m in weights:
        while tup.pivot_weight(n) < m:
            n += 1
        out.append(n)
    return out


def check_quasilinear_bounds(tup: ParameterTuple, table: GrowthTable) -> VerificationReport:
    """Explicit finite-weight bound chain for power-law / tower rules.

    For each row m >= 2, with n = n(m) the pivot-ladder position
    (wt(v_{n-1}) < m <= wt(v_n)), m0 = wt(v_{n-1}) and m1 = floor(m/m0):

      * upper: cumulative second-family counts (standard + power) stay
        below (p^2 + 2p + 2) * m * p^(2n) + n;
      * f1: second-family standard monomials of length n+1 and weight <= m
        number at most p^2 * m1 * m0 * p^(2n);
      * lower: cumulative standard second-family count times theta's
        partial product through index n_last + 2 (a lower bound for theta =
        prod (1 + p^(1-S_i)), as every factor exceeds 1) is at least
        (m1 - p + 1) * m0 * p^(2(n-1)) (trivially true when m1 < p).

    All three are exact integer / rational comparisons; rows with m < 2
    have no ladder position and are skipped.
    """
    _require_unit_second_bound(tup)
    _require_same_rule(tup, table)
    p = tup.p
    rep = VerificationReport(suite="quasilinear-bounds")
    start = bisect.bisect_left(table.ms, 2)  # the weights ascend
    ms = table.ms[start:]
    if not ms:
        return rep
    ns = _ladder_positions(tup, ms)
    # compared by cross-multiplying: a tower rule's partial product has millions of bits
    theta_num, theta_den = _theta_partial(tup, ns[-1] + 2)
    for m, n, second, power_second in zip(
        ms, ns, table.second[start:], table.power_second[start:]
    ):
        m0 = tup.pivot_weight(n - 1)
        m1 = m // m0
        p2n = p ** (2 * n)
        upper = (p * p + 2 * p + 2) * m * p2n + n
        rep.check(
            "quasilinear-upper",
            second + power_second <= upper,
            witness=lambda: f"count={second + power_second} exceeds {upper}",
            m=m,
            n=n,
        )
        f1 = count_descriptors(tup, m, family="second", length=n + 1)
        f1_bound = p * p * m1 * m0 * p2n
        rep.check(
            "quasilinear-f1",
            f1 <= f1_bound,
            witness=lambda: f"length-{n + 1} count {f1} exceeds {f1_bound}",
            m=m,
            n=n,
        )
        target = (m1 - p + 1) * m0 * p ** (2 * (n - 1))
        ok = target <= 0 or second * theta_num >= target * theta_den
        rep.check(
            "quasilinear-lower",
            ok,
            witness=lambda: f"count={second} * theta_lo below {target}",
            m=m,
            n=n,
        )
    return rep


def check_cubic_bounds(tup: ParameterTuple, weights) -> VerificationReport:
    """Cubic bounds on second-family counts at the given weights.

    For each weight m >= 2, with n = n(m) the pivot-ladder position: the
    number of length-(n+1) standard second-family monomials of weight <= m
    must stay below m^3; the length-n count at most 3 m^3; and the total
    number of all shorter second-family standard monomials (lengths
    <= n-1, no weight restriction) at most 2 m^3.  Exact integers.
    """
    rep = VerificationReport(suite="cubic-bounds")
    ms = sorted({int(m) for m in weights if m >= 2})
    ns = _ladder_positions(tup, ms)
    for m, n in zip(ms, ns):
        cube = m**3
        f1 = count_descriptors(tup, m, family="second", length=n + 1)
        rep.check(
            "cubic-f1",
            f1 < cube,
            witness=lambda: f"length-{n + 1} count {f1} not below {cube}",
            m=m,
            n=n,
        )
        f2 = count_descriptors(tup, m, family="second", length=n)
        rep.check(
            "cubic-f2",
            f2 <= 3 * cube,
            witness=lambda: f"length-{n} count {f2} exceeds {3 * cube}",
            m=m,
            n=n,
        )
        shorter = sum(family_totals(tup, L)["second"] for L in range(n))
        rep.check(
            "cubic-f3",
            shorter <= 2 * cube,
            witness=lambda: f"shorter-length total {shorter} exceeds {2 * cube}",
            m=m,
            n=n,
        )
    return rep


# -- asymptotic exponent fits --------------------------------------------------


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares exponent fit over the top decade of a growth table.

    level "gk" fits ln(total) against ln m; level 0 fits
    ln(ln(total/m)) against ln(ln m); level q >= 1 fits ln(total/m)
    against ln(ln^(q) m).  Purely diagnostic: the fit reports beta, the
    companion constant, the window and residuals, and never passes or
    fails anything.
    """

    level: object  # "gk" or an int >= 0
    beta: float
    constant: float
    window: tuple[int, int]
    rows_used: int
    residual_rms: float
    residual_max: float

    def describe(self) -> str:
        return (
            f"level {self.level}: beta={self.beta:.6f} constant={self.constant:.6g} "
            f"window=[{self.window[0]}, {self.window[1]}] rows={self.rows_used} "
            f"residual rms={self.residual_rms:.3g} max={self.residual_max:.3g}"
        )


def _parse_level(level) -> object:
    if isinstance(level, str):
        text = level.strip().lower()
        if text == "gk":
            return "gk"
        try:
            level = int(text)
        except ValueError:
            raise ValueError(
                f"level must be 'gk' or a nonnegative integer, got {level!r}"
            ) from None
    if isinstance(level, int) and level >= 0:
        return level
    raise ValueError(f"level must be 'gk' or a nonnegative integer, got {level!r}")


def _iterated_log(m: int, q: int) -> float | None:
    """ln applied q times to m, or None when it leaves the positive axis."""
    val = math.log(m)  # exact-int aware, no float overflow
    for _ in range(q - 1):
        if val <= 0:
            return None
        val = math.log(val)
    return val if val > 0 else None


def estimate_exponent(table: GrowthTable, level) -> AsymptoticFit:
    """Fit the level's exponent model over the top decade of the table.

    Requires at least 8 rows spanning at least two decades of weight;
    raises ValueError("window too small") otherwise.  Multiplying every
    count by a constant moves only the companion constant for the linear
    models (level "gk" and q >= 1); the level-0 model is fitted through
    its double-log linearization.
    """
    lv = _parse_level(level)
    weights = table.ms
    if len(weights) < 8:
        raise ValueError("window too small")
    m_hi = max(weights)
    if m_hi < 100 * min(weights):
        raise ValueError("window too small")

    xs: list[float] = []
    ys: list[float] = []
    window = (0, 0)  # its first and last kept weight: the weights ascend
    for m, total in zip(weights, table.totals):
        if 10 * m < m_hi:
            continue
        if lv == "gk":
            x, y = math.log(m), math.log(total)
        elif lv == 0:
            ratio_log = math.log(total) - math.log(m)
            inner = math.log(m)
            if ratio_log <= 0 or inner <= 0:
                continue
            x, y = math.log(inner), math.log(ratio_log)
        else:
            xin = _iterated_log(m, lv)
            if xin is None:
                continue
            x, y = math.log(xin), math.log(total) - math.log(m)
        xs.append(x)
        ys.append(y)
        window = (window[0] or m, m)

    n = len(xs)
    if n < 8:
        raise ValueError("window too small")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("window too small")
    beta = sxy / sxx
    intercept = mean_y - beta * mean_x
    for i, x in enumerate(xs):  # ys becomes the residuals
        ys[i] -= beta * x + intercept

    return AsymptoticFit(
        level=lv,
        beta=beta,
        constant=math.exp(intercept),
        window=window,
        rows_used=n,
        residual_rms=math.sqrt(sum(r * r for r in ys) / n),
        residual_max=max(abs(r) for r in ys),
    )
