"""Derivations of the truncated algebra, brackets, and exact p-th powers.

A derivation is a finite sum  Σ c · t^{(e)} · ∂_a^{p^m}  with c in F_p, t^{(e)}
a basis monomial, a a variable id and 0 <= m < level_bound(a), stored as one
flat dict ``terms`` from ``(var, level, degree, exps)`` = (a, m, sum(e), e) to
c != 0.  The sums, scaling, equality and ``repr`` come from
``dpalgebra.LinearCombination``, shared with ``AlgebraElement``; this module
adds the key validation, the products and the rendering.  The closure's
echelon uses the same keys as coordinates: sorted keys give the rendering
order and ``min`` the echelon lead.

In characteristic p every shift ∂_a^{p^m} obeys the Leibniz rule, all
shifts commute with each other, and every derivation of the truncated
algebra is of this shape — so the commutator has the closed form

    [f·∂_A, g·∂_B] = f·∂_A(g)·∂_B − g·∂_B(f)·∂_A,

which costs one exponent test, one tuple splice and one monomial product per
pair of terms.  The p-fold composition D∘…∘D is again of this shape and is
reconstructed from its values on the generator monomials t_a^{(p^j)} by a
triangular elimination.  D sends t_a^{(p^j)} to zero unless it has a shift
on a, so only the shifted variables are visited, and the composition stops
as soon as the image is zero.  Every product of two basis monomials in this
module, in ``bracket``, ``lmul``, ``apply`` and ``p_power`` alike, goes
through ``dpalgebra._mul_exps``.
"""

from __future__ import annotations

import itertools

from .dpalgebra import (
    AXES,
    AlgebraElement,
    DpContext,
    DpMonomial,
    LinearCombination,
    _mul_exps,
    _render_poly,
)

__all__ = [
    "Derivation",
    "pivot",
    "pivot_power",
    "bracket",
    "p_power",
    "p_power_iter",
    "ad_power",
    "jacobson_remainder",
]

PIVOT_KINDS = ("v", "w", "u")
# axis acted on by each pivot kind: v shifts x (axis 0), w shifts y, u shifts z
_KIND_AXIS = {"v": 0, "w": 1, "u": 2}
# the two variables whose maximal powers feed the recursion tail of each kind
_KIND_TAIL_AXES = {"v": (0, 1), "w": (1, 0), "u": (2, 0)}


class Derivation(LinearCombination):
    """Finite sum of c·t^{(e)}·∂_a^{p^m} terms over a fixed truncation context."""

    __slots__ = ()

    def __init__(self, ctx: DpContext, terms: dict | None = None):
        """Validate every ``(var, level, degree, exps)`` key; drop zero terms."""
        self.ctx = ctx
        self.terms: dict[tuple, int] = {}
        bounds = ctx.bounds
        for key, c in (terms or {}).items():
            var, level, degree, exps = key
            i = ctx.index(var)
            if not 0 <= level < ctx.levels[i]:
                raise ValueError(
                    f"shift level {level} of {ctx.var_name(var)} outside "
                    f"0..{ctx.levels[i] - 1}"
                )
            if len(exps) != len(bounds) or any(not 0 <= e < b for e, b in zip(exps, bounds)):
                raise ValueError(f"exponent vector {exps} outside bounds {bounds}")
            if degree != sum(exps):
                raise ValueError(f"degree {degree} differs from sum of {exps}")
            c %= ctx.p
            if c:
                self.terms[key] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def shift(cls, ctx: DpContext, var: tuple[int, int], level: int = 0) -> "Derivation":
        """The bare operator ∂_var^{p^level}."""
        return cls(ctx, {(var, level, 0, (0,) * len(ctx.bounds)): 1})

    # -- products ------------------------------------------------------------

    def lmul(self, el: AlgebraElement) -> "Derivation":
        """Left-multiply every coefficient by an algebra element."""
        self._check(el)
        p, bounds = self.ctx.p, self.ctx.bounds
        out: dict[tuple, int] = {}
        for (var, level, _deg, exps), c in self.terms.items():
            for mono, d in el.terms.items():
                prod = _mul_exps(mono.exps, exps, bounds, p)
                if prod:
                    b, e = prod
                    key = (var, level, sum(e), e)
                    out[key] = (out.get(key, 0) + b * c * d) % p
        return Derivation._of(self.ctx, out)

    # -- operator action -----------------------------------------------------

    def apply(self, f: AlgebraElement) -> AlgebraElement:
        self._check(f)
        image = _act(self, {m.exps: c for m, c in f.terms.items()})
        return AlgebraElement._of(self.ctx, {DpMonomial(e): c for e, c in image.items()})

    # -- inspection ----------------------------------------------------------

    def term_count(self) -> int:
        return len(self.terms)

    def graded_components(self) -> dict[tuple[int, int, int], "Derivation"]:
        """Split into homogeneous parts keyed by multidegree triple.

        A term t^{(e)}·∂_a^{p^m} has p^m times the grade of ∂_a minus the
        exponent-weighted grades of its monomial.
        """
        p, grades = self.ctx.p, self.ctx.grades
        parts: dict[tuple[int, int, int], dict] = {}
        for key, c in self.terms.items():
            (g, a), level, _deg, exps = key
            gv, gw, gu = grades[3 * g + a]
            s = p**level
            v, w, u = gv * s, gw * s, gu * s
            for e, (ev, ew, eu) in zip(exps, grades):
                if e:
                    v, w, u = v - e * ev, w - e * ew, u - e * eu
            parts.setdefault((v, w, u), {})[key] = c
        return {md: self._of(self.ctx, t) for md, t in parts.items()}

    def multidegree(self) -> tuple[int, int, int] | None:
        """Multidegree triple of a homogeneous derivation; None when zero."""
        parts = self.graded_components()
        if not parts:
            return None
        if len(parts) > 1:
            raise ValueError("derivation is not homogeneous")
        return next(iter(parts))

    def weight(self) -> int | None:
        """Largest weight of a term, the sum of its multidegree; None when zero."""
        return max(map(sum, self.graded_components()), default=None)

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms by (variable, level), then graded-lex by monomial."""
        return sorted(self.terms.items())

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ((g, a), level), group in itertools.groupby(
            self.sorted_terms(), key=lambda t: t[0][:2]
        ):
            sym = f"∂_{{{AXES[a]}{g}}}"
            if level:
                sym += f"^{{p^{level}}}"
            monos = [(DpMonomial(key[3]), c) for key, c in group]
            txt = _render_poly(monos)
            if txt == "1":
                parts.append(sym)
            elif len(monos) == 1:
                parts.append(f"{txt}·{sym}")
            else:
                parts.append(f"({txt})·{sym}")
        return " + ".join(parts)


# -- pivots -------------------------------------------------------------------


def pivot(ctx: DpContext, kind: str, i: int) -> Derivation:
    """The generation-i recursive generator of the given kind, truncated.

    Expanded form: sum over j = i .. depth-1 of the product of maximal-power
    monomials of generations i .. j-1 (the pair of axes the recursion feeds)
    times the first-order shift of generation j.  Generation ``depth`` gives
    the zero derivation.
    """
    if kind not in PIVOT_KINDS:
        raise ValueError(f"unknown pivot kind {kind!r}; expected one of {PIVOT_KINDS}")
    N = ctx.depth
    if i > N:
        raise ValueError(f"generation beyond truncation: {i} > depth {N}")
    if i < 0:
        raise ValueError("generation must be >= 0")
    axis = _KIND_AXIS[kind]
    ta, tb = _KIND_TAIL_AXES[kind]
    terms = {}
    prefix = [0] * len(ctx.bounds)
    for j in range(i, N):
        exps = tuple(prefix)
        terms[((j, axis), 0, sum(exps), exps)] = 1
        for k in (3 * j + ta, 3 * j + tb):
            prefix[k] = ctx.bounds[k] - 1
    return Derivation._of(ctx, terms)


def pivot_power(ctx: DpContext, kind: str, i: int, m: int) -> Derivation:
    """Closed form of the generation-i pivot raised to the p^m-th power.

    For m below the level bound of the pivot's axis the shift ∂^{p^m} of
    generation i survives; the rest is the generation-(i+1) pivot times the
    remaining powers of the two tail variables.  At m = level bound only
    that collapse onto the next generation is left.
    """
    ta, tb = _KIND_TAIL_AXES[kind]
    a, b = ctx.index((i, ta)), ctx.index((i, tb))
    res = Derivation.shift(ctx, (i, ta), m) if m < ctx.levels[a] else Derivation.zero(ctx)
    tail = {(i, ta): ctx.bounds[a] - ctx.p**m, (i, tb): ctx.bounds[b] - 1}
    return res + pivot(ctx, kind, i + 1).lmul(AlgebraElement.monomial(ctx, tail))


# -- bracket and p-th power ----------------------------------------------------


def bracket(D: Derivation, E: Derivation) -> Derivation:
    """Commutator [D, E] of two derivations, one pair of terms at a time."""
    D._check(E)
    ctx = D.ctx
    p, bounds = ctx.p, ctx.bounds
    right = [
        (vb, lb, 3 * vb[0] + vb[1], p**lb, eb, cb)
        for (vb, lb, _deg, eb), cb in E.terms.items()
    ]
    out: dict[tuple, int] = {}
    for (va, la, _deg, ea), ca in D.terms.items():
        ia, sa = 3 * va[0] + va[1], p**la
        for vb, lb, ib, sb, eb, cb in right:
            if eb[ia] >= sa:  # f·∂_A(g)·∂_B
                prod = _mul_exps(ea, eb[:ia] + (eb[ia] - sa,) + eb[ia + 1:], bounds, p)
                if prod:
                    b, e = prod
                    key = (vb, lb, sum(e), e)
                    out[key] = (out.get(key, 0) + b * ca * cb) % p
            if ea[ib] >= sb:  # − g·∂_B(f)·∂_A
                prod = _mul_exps(eb, ea[:ib] + (ea[ib] - sb,) + ea[ib + 1:], bounds, p)
                if prod:
                    b, e = prod
                    key = (va, la, sum(e), e)
                    out[key] = (out.get(key, 0) - b * ca * cb) % p
    return Derivation._of(ctx, out)


def ad_power(D: Derivation, E: Derivation, k: int) -> Derivation:
    """Iterated bracket (ad D)^k applied to E."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = E
    for _ in range(k):
        acc = bracket(D, acc)
    return acc


def _act(D: Derivation, poly: dict) -> dict:
    """D(f) for f given as {exps: c}, in the same form, one term of D at a time:
    f_A·∂_a^{p^m} lowers the exponent of a by p^m and multiplies by f_A."""
    p, bounds = D.ctx.p, D.ctx.bounds
    out: dict[tuple, int] = {}
    for ((g, a), level, _deg, ea), ca in D.terms.items():
        i, step = 3 * g + a, p**level
        for eb, cb in poly.items():
            if eb[i] >= step:
                prod = _mul_exps(ea, eb[:i] + (eb[i] - step,) + eb[i + 1:], bounds, p)
                if prod:
                    b, e = prod
                    out[e] = (out.get(e, 0) + b * ca * cb) % p
    return {e: c for e, c in out.items() if c}


def p_power(D: Derivation) -> Derivation:
    """The p-th power D^{[p]} = D∘…∘D (p factors), reconstructed exactly.

    The composition is evaluated on the generator monomials t_a^{(p^j)} of
    every variable a that D shifts (it kills the others) and the
    coefficients are recovered by triangular elimination in j: the
    coefficient f_j of ∂_a^{p^j} is the image minus f_i·t_a^{(p^j − p^i)}
    for every i < j.
    """
    ctx = D.ctx
    p, bounds = ctx.p, ctx.bounds
    zeros = (0,) * len(bounds)
    terms = {}
    for var in sorted({key[0] for key in D.terms}):
        a = ctx.index(var)
        recovered: list[dict] = []
        for j in range(ctx.levels[a]):
            f = {zeros[:a] + (p**j,) + zeros[a + 1:]: 1}
            for _ in range(p):
                if not f:
                    break
                f = _act(D, f)
            for i, fi in enumerate(recovered):
                step = zeros[:a] + (p**j - p**i,) + zeros[a + 1:]
                for ei, c in fi.items():
                    prod = _mul_exps(ei, step, bounds, p)
                    if prod:
                        b, e = prod
                        f[e] = (f.get(e, 0) - b * c) % p
            f = {e: c for e, c in f.items() if c}
            recovered.append(f)
            for e, c in f.items():
                terms[(var, j, sum(e), e)] = c
    return Derivation._of(ctx, terms)


def p_power_iter(D: Derivation, m: int) -> Derivation:
    """Iterated p-th power D^{[p^m]}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    acc = D
    for _ in range(m):
        acc = p_power(acc)
    return acc


def jacobson_remainder(D: Derivation, E: Derivation) -> Derivation:
    """(D+E)^{[p]} − D^{[p]} − E^{[p]} − (ad D)^{p−1}(E).

    Zero for p = 2; equals [E, [E, D]] for p = 3; for larger p it lies in the
    span of iterated brackets of D and E.
    """
    D._check(E)
    p = D.ctx.p
    return p_power(D + E) - p_power(D) - p_power(E) - ad_power(D, E, p - 1)
