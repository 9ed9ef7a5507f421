"""Derivations of the truncated algebra, brackets, and exact p-th powers.

A derivation is stored as a finite sum  Σ f · ∂_a^{p^m}  with f an
AlgebraElement, a a variable id and 0 <= m < level_bound(a).  In
characteristic p every shift ∂_a^{p^m} obeys the Leibniz rule, all shifts
commute with each other, and every derivation of the truncated algebra is
of this shape — so the commutator has the closed form

    [f·∂_A, g·∂_B] = f·∂_A(g)·∂_B − g·∂_B(f)·∂_A,

and the p-fold composition D∘…∘D is again of this shape and can be
reconstructed from its values on the generator monomials t_a^{(p^j)}
by a triangular elimination.
"""

from __future__ import annotations

from .dpalgebra import (
    AXES,
    AlgebraElement,
    ContextMismatchError,
    DpContext,
    DpMonomial,
    dp_basis,
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


class Derivation:
    """Finite sum of f·∂_a^{p^m} terms over a fixed truncation context."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: DpContext, coeffs: dict | None = None):
        self.ctx = ctx
        self.coeffs: dict[tuple[tuple[int, int], int], AlgebraElement] = {}
        if coeffs:
            for key, f in coeffs.items():
                if not f.is_zero():
                    var, level = key
                    if not (0 <= level < ctx.level_bound(var)):
                        raise ValueError(
                            f"shift level {level} of {ctx.var_name(var)} outside "
                            f"0..{ctx.level_bound(var) - 1}"
                        )
                    self.coeffs[key] = f

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: DpContext) -> "Derivation":
        return cls(ctx)

    @classmethod
    def shift(cls, ctx: DpContext, var: tuple[int, int], level: int = 0) -> "Derivation":
        """The bare operator ∂_var^{p^level}."""
        return cls(ctx, {(var, level): AlgebraElement.one(ctx)})

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "Derivation") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("context mismatch")

    def __add__(self, other: "Derivation") -> "Derivation":
        self._check(other)
        out = dict(self.coeffs)
        for key, g in other.coeffs.items():
            s = out[key] + g if key in out else g
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        res = Derivation(self.ctx)
        res.coeffs = out
        return res

    def __neg__(self) -> "Derivation":
        res = Derivation(self.ctx)
        res.coeffs = {k: -f for k, f in self.coeffs.items()}
        return res

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-other)

    def scale(self, c: int) -> "Derivation":
        res = Derivation(self.ctx)
        c %= self.ctx.p
        if c:
            res.coeffs = {k: f.scale(c) for k, f in self.coeffs.items()}
        return res

    def lmul(self, el: AlgebraElement) -> "Derivation":
        """Left-multiply every coefficient by an algebra element."""
        if el.ctx != self.ctx:
            raise ContextMismatchError("context mismatch")
        out = {}
        for key, f in self.coeffs.items():
            g = el * f
            if not g.is_zero():
                out[key] = g
        res = Derivation(self.ctx)
        res.coeffs = out
        return res

    # -- operator action -----------------------------------------------------

    def apply(self, f: AlgebraElement) -> AlgebraElement:
        if f.ctx != self.ctx:
            raise ContextMismatchError("context mismatch")
        acc = AlgebraElement.zero(self.ctx)
        for (var, level), coeff in self.coeffs.items():
            shifted = f.derive(var, level)
            if not shifted.is_zero():
                acc = acc + coeff * shifted
        return acc

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("Derivation is not hashable")

    def term_count(self) -> int:
        return sum(len(f.terms) for f in self.coeffs.values())

    def graded_components(self) -> dict[tuple[int, int, int], "Derivation"]:
        """Split into homogeneous parts keyed by multidegree triple."""
        parts: dict[tuple[int, int, int], dict] = {}
        for (var, level), f in self.coeffs.items():
            base = _shift_multidegree(self.ctx, var, level)
            for mono, c in f.terms.items():
                key = _add3(base, _monomial_multidegree(self.ctx, mono))
                bucket = parts.setdefault(key, {})
                slot = bucket.setdefault((var, level), {})
                slot[mono] = c
        out = {}
        for key, bucket in parts.items():
            res = Derivation(self.ctx)
            for vk, monos in bucket.items():
                el = AlgebraElement(self.ctx)
                el.terms = monos
                res.coeffs[vk] = el
            out[key] = res
        return out

    def multidegree(self) -> tuple[int, int, int] | None:
        """Multidegree triple of a homogeneous derivation; None when zero."""
        parts = self.graded_components()
        if not parts:
            return None
        if len(parts) > 1:
            raise ValueError("derivation is not homogeneous")
        return next(iter(parts))

    def weight(self) -> int | None:
        md = self.multidegree()
        return None if md is None else sum(md)

    def sorted_terms(self):
        """Deterministic term iteration: by (variable, level), then monomial."""
        for key in sorted(self.coeffs):
            f = self.coeffs[key]
            yield key, f

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (var, level), f in self.sorted_terms():
            g, a = var
            sym = f"∂_{{{AXES[a]}{g}}}"
            if level:
                sym += f"^{{p^{level}}}"
            txt = f.render()
            if txt == "1":
                parts.append(sym)
            elif len(f.terms) == 1:
                parts.append(f"{txt}·{sym}")
            else:
                parts.append(f"({txt})·{sym}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Derivation({self.render()})"


# -- multidegree helpers -----------------------------------------------------


def _add3(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _shift_multidegree(ctx: DpContext, var: tuple[int, int], level: int):
    """Multidegree of ∂_var^{p^level}: p^level times the grade of ∂_var."""
    gv, gw, gu = ctx.grades[ctx.index(var)]
    s = ctx.p ** level
    return (gv * s, gw * s, gu * s)


def _monomial_multidegree(ctx: DpContext, mono: DpMonomial):
    """Multidegree of a divided-power monomial: minus exponent-weighted grades."""
    v = w = u = 0
    for e, (gv, gw, gu) in zip(mono.exps, ctx.grades):
        if e:
            v, w, u = v - e * gv, w - e * gw, u - e * gu
    return (v, w, u)


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
    res = Derivation(ctx)
    prefix: dict[tuple[int, int], int] = {}
    p = ctx.p
    for j in range(i, N):
        res.coeffs[((j, axis), 0)] = AlgebraElement.monomial(ctx, dict(prefix))
        Sj, Rj = ctx.tup.materialize(j)
        prefix[(j, ta)] = p ** (Sj if ta == 0 else Rj) - 1
        prefix[(j, tb)] = p ** (Sj if tb == 0 else Rj) - 1
    return res


def pivot_power(ctx: DpContext, kind: str, i: int, m: int) -> Derivation:
    """Closed form of the generation-i pivot raised to the p^m-th power.

    For m below the level bound of the pivot's axis the shift ∂^{p^m} of
    generation i survives; the rest is the generation-(i+1) pivot times the
    remaining powers of the two tail variables.  At m = level bound only
    that collapse onto the next generation is left.
    """
    ta, tb = _KIND_TAIL_AXES[kind]
    S, R = ctx.tup.materialize(i)
    p = ctx.p
    top = S if ta == 0 else R
    res = Derivation.zero(ctx)
    if m < top:
        res = Derivation.shift(ctx, (i, ta), m)
    exps = {(i, ta): p**top - p**m, (i, tb): p ** (S if tb == 0 else R) - 1}
    exps = {var: e for var, e in exps.items() if e}
    return res + pivot(ctx, kind, i + 1).lmul(AlgebraElement.monomial(ctx, exps))


# -- bracket and p-th power ----------------------------------------------------


def bracket(D: Derivation, E: Derivation) -> Derivation:
    """Commutator [D, E] of two derivations."""
    D._check(E)
    ctx = D.ctx
    out: dict[tuple[tuple[int, int], int], AlgebraElement] = {}

    def accumulate(key, el):
        if el.is_zero():
            return
        s = out[key] + el if key in out else el
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s

    for (va, la), f in D.coeffs.items():
        for (vb, lb), g in E.coeffs.items():
            dg = g.derive(va, la)
            if not dg.is_zero():
                accumulate((vb, lb), f * dg)
            df = f.derive(vb, lb)
            if not df.is_zero():
                accumulate((va, la), -(g * df))
    res = Derivation(ctx)
    res.coeffs = out
    return res


def ad_power(D: Derivation, E: Derivation, k: int) -> Derivation:
    """Iterated bracket (ad D)^k applied to E."""
    if k < 0:
        raise ValueError("k must be >= 0")
    acc = E
    for _ in range(k):
        acc = bracket(D, acc)
    return acc


def p_power(D: Derivation, verify: bool = False) -> Derivation:
    """The p-th power D^{[p]} = D∘…∘D (p factors), reconstructed exactly.

    The composition is evaluated on every generator monomial t_a^{(p^j)} and
    the coefficients are recovered by triangular elimination in j.  With
    ``verify`` set, the result is checked against direct p-fold application
    on the full monomial basis.
    """
    ctx = D.ctx
    p = ctx.p

    def compose_p(el: AlgebraElement) -> AlgebraElement:
        for _ in range(p):
            el = D.apply(el)
        return el

    res = Derivation(ctx)
    for var in ctx.variables():
        recovered: list[AlgebraElement] = []
        for j in range(ctx.level_bound(var)):
            image = compose_p(AlgebraElement.monomial(ctx, {var: p**j}))
            f = image
            for i, fi in enumerate(recovered):
                if fi.is_zero():
                    continue
                step = AlgebraElement.monomial(ctx, {var: p**j - p**i})
                f = f - fi * step
            recovered.append(f)
            if not f.is_zero():
                res.coeffs[(var, j)] = f
    if verify:
        for mono in dp_basis(ctx, cap=ctx.dimension()):
            el = AlgebraElement(ctx, {mono: 1})
            if res.apply(el) != compose_p(el):
                raise RuntimeError("p-power reconstruction failed")
    return res


def p_power_iter(D: Derivation, m: int, verify: bool = False) -> Derivation:
    """Iterated p-th power D^{[p^m]}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    acc = D
    for _ in range(m):
        acc = p_power(acc, verify=verify)
    return acc


def jacobson_remainder(D: Derivation, E: Derivation) -> Derivation:
    """(D+E)^{[p]} − D^{[p]} − E^{[p]} − (ad D)^{p−1}(E).

    Zero for p = 2; equals [E, [E, D]] for p = 3; for larger p it lies in the
    span of iterated brackets of D and E.
    """
    D._check(E)
    p = D.ctx.p
    return p_power(D + E) - p_power(D) - p_power(E) - ad_power(D, E, p - 1)
