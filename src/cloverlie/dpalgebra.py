"""Exact arithmetic in truncated divided power algebras over F_p.

A depth-N context carries three divided-power variables per generation
i < N: the x-variable with exponents 0 <= e < p^{S_i} and the y-, z-variables
with exponents 0 <= e < p^{R_i}.  The product of basis monomials multiplies
matching exponents additively and carries a binomial coefficient per variable
(computed mod p by Lucas' theorem); a term dies when an exponent would reach
its bound.  The shift operators send t^{(e)} to t^{(e - p^m)} on one variable
and act trivially on the others; they are exactly the p^m-th powers of the
basic first-order shift and vanish once p^m reaches the exponent bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ParameterTuple

__all__ = [
    "ContextMismatchError",
    "DpContext",
    "DpMonomial",
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

    @property
    def p(self) -> int:
        return self.tup.p

    def variables(self) -> tuple[tuple[int, int], ...]:
        """All variable ids (generation, axis) in canonical order."""
        return tuple((g, a) for g in range(self.depth) for a in range(3))

    def exponent_bound(self, var: tuple[int, int]) -> int:
        """Exponents of ``var`` run in 0 .. bound-1."""
        g, a = var
        if not (0 <= g < self.depth and 0 <= a < 3):
            raise ValueError(f"variable {var} outside depth-{self.depth} context")
        S, R = self.tup.materialize(g)
        return self.p ** (S if a == 0 else R)

    def level_bound(self, var: tuple[int, int]) -> int:
        """Number of nonzero shift levels of ``var``: its bound is p**level_bound."""
        g, a = var
        S, R = self.tup.materialize(g)
        return S if a == 0 else R

    def dimension(self) -> int:
        dim = 1
        for g in range(self.depth):
            S, R = self.tup.materialize(g)
            dim *= self.p ** (S + 2 * R)
        return dim

    def var_name(self, var: tuple[int, int]) -> str:
        g, a = var
        return f"{AXES[a]}{g}"


@dataclass(frozen=True)
class DpMonomial:
    """A basis monomial: sorted ((generation, axis), exponent) pairs, no zeros."""

    exps: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def unit() -> "DpMonomial":
        return DpMonomial(())

    @staticmethod
    def from_dict(d: dict) -> "DpMonomial":
        return DpMonomial(tuple(sorted((v, e) for v, e in d.items() if e)))

    def exponent(self, var: tuple[int, int]) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def render(self) -> str:
        if not self.exps:
            return "1"
        return ".".join(f"{AXES[a]}{g}^({e})" for (g, a), e in self.exps)

    def __str__(self) -> str:
        return self.render()


def _mul_mono(ctx: DpContext, m1: DpMonomial, m2: DpMonomial):
    """Product of two basis monomials: (coefficient mod p, monomial) or None."""
    p = ctx.p
    coeff = 1
    out = []
    i = j = 0
    e1, e2 = m1.exps, m2.exps
    while i < len(e1) and j < len(e2):
        v1, a1 = e1[i]
        v2, a2 = e2[j]
        if v1 < v2:
            out.append(e1[i])
            i += 1
        elif v2 < v1:
            out.append(e2[j])
            j += 1
        else:
            s = a1 + a2
            if s >= ctx.exponent_bound(v1):
                return None
            coeff = coeff * binom_mod_p(s, a1, p) % p
            if coeff == 0:
                return None
            out.append((v1, s))
            i += 1
            j += 1
    out.extend(e1[i:])
    out.extend(e2[j:])
    return coeff, DpMonomial(tuple(out))


def _shift_mono(ctx: DpContext, mono: DpMonomial, var: tuple[int, int], step: int):
    """Lower the exponent of ``var`` by ``step``; None when the term dies."""
    e = mono.exponent(var)
    if e < step:
        return None
    if e == step:
        return DpMonomial(tuple(pair for pair in mono.exps if pair[0] != var))
    return DpMonomial(tuple(
        (v, ex - step) if v == var else (v, ex) for v, ex in mono.exps
    ))


class AlgebraElement:
    """An F_p-linear combination of basis monomials in a fixed context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: DpContext, terms: dict | None = None):
        self.ctx = ctx
        self.terms: dict[DpMonomial, int] = {}
        if terms:
            p = ctx.p
            for mono, c in terms.items():
                c %= p
                if c:
                    self.terms[mono] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx: DpContext) -> "AlgebraElement":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: DpContext) -> "AlgebraElement":
        return cls(ctx, {DpMonomial.unit(): 1})

    @classmethod
    def monomial(cls, ctx: DpContext, exps: dict, coeff: int = 1) -> "AlgebraElement":
        """Element with a single monomial given as {variable: exponent}."""
        for v, e in exps.items():
            if not (0 <= e < ctx.exponent_bound(v)):
                raise ValueError(
                    f"exponent {e} of {ctx.var_name(v)} outside 0..{ctx.exponent_bound(v) - 1}"
                )
        return cls(ctx, {DpMonomial.from_dict(exps): coeff})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError("context mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        p = self.ctx.p
        out = dict(self.terms)
        for mono, c in other.terms.items():
            nc = (out.get(mono, 0) + c) % p
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
        res = AlgebraElement(self.ctx)
        res.terms = out
        return res

    def __neg__(self) -> "AlgebraElement":
        p = self.ctx.p
        res = AlgebraElement(self.ctx)
        res.terms = {m: (-c) % p for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: int) -> "AlgebraElement":
        c %= self.ctx.p
        res = AlgebraElement(self.ctx)
        if c:
            res.terms = {m: (k * c) % self.ctx.p for m, k in self.terms.items()}
        return res

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        p = self.ctx.p
        out: dict[DpMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = _mul_mono(self.ctx, m1, m2)
                if prod is None:
                    continue
                c, mono = prod
                nc = (out.get(mono, 0) + c * c1 * c2) % p
                if nc:
                    out[mono] = nc
                else:
                    out.pop(mono, None)
        res = AlgebraElement(self.ctx)
        res.terms = out
        return res

    def derive(self, var: tuple[int, int], m: int = 0) -> "AlgebraElement":
        """Apply the p^m-th shift of ``var`` termwise."""
        if m < 0:
            raise ValueError("shift level must be >= 0")
        g, a = var
        if not (0 <= g < self.ctx.depth and 0 <= a < 3):
            raise ValueError(f"variable {var} outside depth-{self.ctx.depth} context")
        step = self.ctx.p ** m
        out: dict[DpMonomial, int] = {}
        for mono, c in self.terms.items():
            shifted = _shift_mono(self.ctx, mono, var, step)
            if shifted is None:
                continue
            nc = (out.get(shifted, 0) + c) % self.ctx.p
            if nc:
                out[shifted] = nc
            else:
                out.pop(shifted, None)
        res = AlgebraElement(self.ctx)
        res.terms = out
        return res

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("AlgebraElement is mutable-by-construction; not hashable")

    def sorted_terms(self) -> list[tuple[DpMonomial, int]]:
        return sorted(self.terms.items(), key=lambda t: term_key(self.ctx, t[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            parts.append(mono.render() if c == 1 else f"{c}*{mono.render()}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"AlgebraElement({self.render()})"


def term_key(ctx: DpContext, mono: DpMonomial):
    """Graded-lexicographic sort key: total degree, then the exponent vector
    read in canonical variable order (generation, then letter x < y < z)."""
    vec = tuple(mono.exponent(v) for v in ctx.variables())
    return (mono.degree(), vec)


def dp_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a * b


def dp_derive(var: tuple[int, int], m: int, a: AlgebraElement) -> AlgebraElement:
    return a.derive(var, m)


def dp_basis_dim(ctx: DpContext) -> int:
    return ctx.dimension()


def dp_basis(ctx: DpContext, cap: int = 2_000_000) -> list[DpMonomial]:
    """All basis monomials in graded-lex order; refuses oversized contexts."""
    dim = ctx.dimension()
    if dim > cap:
        raise ValueError(
            f"truncation too large to enumerate: dimension {dim} exceeds cap {cap}"
        )
    monos = [DpMonomial.unit()]
    for var in ctx.variables():
        bound = ctx.exponent_bound(var)
        monos = [
            DpMonomial(m.exps + (((var), e),)) if e else m
            for m in monos
            for e in range(bound)
        ]
    monos.sort(key=lambda m: term_key(ctx, m))
    return monos
