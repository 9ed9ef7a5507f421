"""Exact arithmetic in truncated divided power algebras over F_p.

A depth-N context carries three divided-power variables per generation
i < N: the x-variable with exponents 0 <= e < p^{S_i} and the y-, z-variables
with exponents 0 <= e < p^{R_i}.  A basis monomial is a dense exponent
vector with one entry per variable in canonical order, so variable (g, a)
sits at index 3g + a; the context caches the per-variable level counts,
exponent bounds (read from ``ParameterTuple.powers``) and grades in the
same order.  The product of basis monomials adds exponent vectors and
carries a binomial coefficient per variable (computed mod p by Lucas'
theorem); a term dies when an exponent would reach its bound.  The shift
operators send t^{(e)} to t^{(e - p^m)} on one variable and act trivially
on the others; they are exactly the p^m-th powers of the basic first-order
shift and vanish once p^m reaches the exponent bound.

``LinearCombination`` is the vector-space layer of every F_p-linear
combination over a context: the ``ctx``/``terms`` slots, sums, scaling,
equality and rendering hooks.  ``AlgebraElement`` (keys are monomials)
and ``derivations.Derivation`` (keys are shift terms) subclass it and add
only their constructors, products and rendering.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .params import ParameterTuple

__all__ = [
    "ContextMismatchError",
    "DpContext",
    "DpMonomial",
    "LinearCombination",
    "AlgebraElement",
    "binom_mod_p",
    "dp_mul",
    "dp_derive",
    "dp_basis",
    "dp_basis_dim",
    "term_key",
]

AXES = "xyz"


class ContextMismatchError(ValueError):
    """Operands live in different truncation contexts."""


def binom_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p via Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    res = 1
    while n or k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return 0
        res = res * math.comb(nd, kd) % p
    return res


@dataclass(frozen=True)
class DpContext:
    """A parameter tuple truncated to the first ``depth`` generations."""

    tup: ParameterTuple
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.tup.pairs(self.depth)

    @functools.cached_property
    def p(self) -> int:
        return self.tup.p

    def variables(self) -> tuple[tuple[int, int], ...]:
        """All variable ids (generation, axis) in canonical order."""
        return tuple((g, a) for g in range(self.depth) for a in range(3))

    @functools.cached_property
    def levels(self) -> tuple[int, ...]:
        """Level count S or R of every variable, in canonical order."""
        return tuple(e for S, R in self.tup.pairs(self.depth) for e in (S, R, R))

    @functools.cached_property
    def bounds(self) -> tuple[int, ...]:
        """Exponent bound p^S or p^R of every variable, in canonical order."""
        pows = (self.tup.powers(g) for g in range(self.depth))
        return tuple(b for ps, pr in pows for b in (ps, pr, pr))

    @functools.cached_property
    def grades(self) -> tuple[tuple[int, int, int], ...]:
        """Multidegree of every variable's first-order shift, in canonical order."""
        return tuple(
            self.tup.pivot_multidegree(g, kind).as_tuple()
            for g in range(self.depth)
            for kind in "vwu"
        )

    def index(self, var: tuple[int, int]) -> int:
        """Position 3g + a of variable (g, a) in exponent vectors."""
        g, a = var
        if not (0 <= g < self.depth and 0 <= a < 3):
            raise ValueError(f"variable {var} outside depth-{self.depth} context")
        return 3 * g + a

    def exponent_bound(self, var: tuple[int, int]) -> int:
        """Exponents of ``var`` run in 0 .. bound-1."""
        return self.bounds[self.index(var)]

    def level_bound(self, var: tuple[int, int]) -> int:
        """Number of nonzero shift levels of ``var``: its bound is p**level_bound."""
        return self.levels[self.index(var)]

    def dimension(self) -> int:
        return math.prod(self.bounds)

    def var_name(self, var: tuple[int, int]) -> str:
        g, a = var
        return f"{AXES[a]}{g}"


@dataclass(frozen=True)
class DpMonomial:
    """A basis monomial: one exponent per variable of its context, in
    canonical order, so the exponent of variable (g, a) is ``exps[3g + a]``."""

    exps: tuple[int, ...]

    def render(self) -> str:
        if not any(self.exps):
            return "1"
        return ".".join(
            f"{AXES[i % 3]}{i // 3}^({e})" for i, e in enumerate(self.exps) if e
        )

    def __str__(self) -> str:
        return self.render()


def _mul_exps(a: tuple, b: tuple, bounds: tuple, p: int):
    """Product of two basis monomials given as exponent vectors:
    (coefficient mod p, exponent vector) or None when the product dies."""
    coeff = 1
    for x, y, bound in zip(a, b, bounds):
        if x and y:
            s = x + y
            if s >= bound:
                return None
            coeff = coeff * binom_mod_p(s, x, p) % p
            if coeff == 0:
                return None
    return coeff, tuple(map(operator.add, a, b))


class LinearCombination:
    """An F_p-linear combination over one truncation context: ``terms`` maps
    each basis key to its coefficient, reduced mod p and never zero.

    This is the vector-space layer of both :class:`AlgebraElement` (keys are
    monomials) and ``Derivation`` (keys are shift terms); the subclasses add
    their constructors, products and rendering.  Values are compared by
    type, context and terms, and are not hashable.
    """

    __slots__ = ("ctx", "terms")

    @classmethod
    def _of(cls, ctx: DpContext, terms: dict):
        """Wrap a computed term dict, dropping zero coefficients; no key checks."""
        res = cls.__new__(cls)
        res.ctx = ctx
        res.terms = {k: c for k, c in terms.items() if c}
        return res

    @classmethod
    def zero(cls, ctx: DpContext):
        return cls._of(ctx, {})

    def _check(self, other: "LinearCombination") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("context mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = (out.get(key, 0) + c) % p
        return self._of(self.ctx, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        p = self.ctx.p
        c %= p
        return self._of(self.ctx, {k: v * c % p for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    __hash__ = None  # equal by value, and built by mutating ``terms``

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


def _render_poly(terms) -> str:
    """``c*m + ...`` for (monomial, coefficient) pairs, unit coefficients bare."""
    return " + ".join(m.render() if c == 1 else f"{c}*{m.render()}" for m, c in terms)


class AlgebraElement(LinearCombination):
    """An F_p-linear combination of basis monomials in a fixed context."""

    __slots__ = ()

    def __init__(self, ctx: DpContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[DpMonomial, int] = {
            mono: c % ctx.p for mono, c in (terms or {}).items() if c % ctx.p
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, ctx: DpContext) -> "AlgebraElement":
        return cls(ctx, {DpMonomial((0,) * (3 * ctx.depth)): 1})

    @classmethod
    def monomial(cls, ctx: DpContext, exps: dict, coeff: int = 1) -> "AlgebraElement":
        """Element with a single monomial given as {variable: exponent}."""
        vec = [0] * (3 * ctx.depth)
        for v, e in exps.items():
            i = ctx.index(v)
            if not (0 <= e < ctx.bounds[i]):
                raise ValueError(
                    f"exponent {e} of {ctx.var_name(v)} outside 0..{ctx.bounds[i] - 1}"
                )
            vec[i] = e
        return cls(ctx, {DpMonomial(tuple(vec)): coeff})

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        p, bounds = self.ctx.p, self.ctx.bounds
        out: dict[DpMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = _mul_exps(m1.exps, m2.exps, bounds, p)
                if prod:
                    c, exps = prod
                    mono = DpMonomial(exps)
                    out[mono] = (out.get(mono, 0) + c * c1 * c2) % p
        return self._of(self.ctx, out)

    def derive(self, var: tuple[int, int], m: int = 0) -> "AlgebraElement":
        """Apply the p^m-th shift of ``var`` termwise.

        The shift lowers one exponent by p^m, so distinct surviving terms
        stay distinct and keep their coefficients.
        """
        if m < 0:
            raise ValueError("shift level must be >= 0")
        i = self.ctx.index(var)
        step = self.ctx.p ** m
        out: dict[DpMonomial, int] = {}
        for mono, c in self.terms.items():
            exps = mono.exps
            if exps[i] >= step:
                out[DpMonomial(exps[:i] + (exps[i] - step,) + exps[i + 1:])] = c
        return self._of(self.ctx, out)

    # -- inspection ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[DpMonomial, int]]:
        return sorted(self.terms.items(), key=lambda t: term_key(self.ctx, t[0]))

    def render(self) -> str:
        return _render_poly(self.sorted_terms()) if self.terms else "0"


def term_key(ctx: DpContext, mono: DpMonomial):
    """Graded-lexicographic sort key: total degree, then the exponent vector
    read in canonical variable order (generation, then letter x < y < z)."""
    return (sum(mono.exps), mono.exps)


def dp_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b


def dp_derive(var: tuple[int, int], m: int, a: AlgebraElement) -> AlgebraElement:
    return a.derive(var, m)


def dp_basis_dim(ctx: DpContext) -> int:
    return ctx.dimension()


# Largest truncation whose monomials dp_basis lists.
DP_BASIS_CAP = 2_000_000


def dp_basis(ctx: DpContext) -> list[DpMonomial]:
    """All basis monomials in graded-lex order; refuses oversized contexts."""
    dim = ctx.dimension()
    if dim > DP_BASIS_CAP:
        raise ValueError(
            "truncation too large to enumerate: "
            f"dimension {dim} exceeds cap {DP_BASIS_CAP}"
        )
    monos = [
        DpMonomial(exps)
        for exps in itertools.product(*(range(b) for b in ctx.bounds))
    ]
    monos.sort(key=lambda m: term_key(ctx, m))
    return monos
