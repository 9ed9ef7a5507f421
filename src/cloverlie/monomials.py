"""Symbolic basis descriptors, their weights, realization, and exact counting.

The graded basis of the 3-generated algebra splits into five families:

* ``first``   — length 0: the two generators that shift x / y; length n >= 1:
  a head cell (ξ, η) over generation n-1 (the bottom-right corner cell is
  excluded) times a tail of x/y divided powers over generations <= n-2.
* ``second``  — length 0: the generator that shifts z; length n >= 1: a head
  cell (ξ, ζ) with 0 <= ξ <= p^S-2, 0 <= ζ <= p^R-1 times a tail of x/y/z
  divided powers over generations <= n-2.
* ``power_v`` / ``power_w`` / ``power_u`` — iterated p-th powers of the
  generation n-1 recursive generator, exponent index 1 <= m <= S (for v)
  or 1 <= m <= R (for w, u).

Each family fact has one definition that every reader calls: ``_GENERATORS``
(pivot kinds of the length-0 generators), ``_head_box`` (head box P × Q),
``_excluded_heads`` (the corner cell ``first`` leaves out; ``_head_count``
counts the rest), ``_power_bound`` (S or R, the power families' exponent
bound), ``_length_total`` (all descriptors of one length), ``_tail_caps``
(largest exponents of a tail cell; its length is the arity), ``_box_prefix``
(cells of a box with exponent sum <= s) and ``_COLUMN`` / ``_columns``
(growth-table columns of the five families).

Weights live in the mixed-radix ladder W_{i+1} = (p^{S_i} + p^{R_i} - 1) W_i:
every variable of generation i contributes weight W_i per unit exponent, a
head cell of generation n-1 weighs (sum + 2) W_{n-1}, and tail exponents are
deficiencies subtracted from the head weight.  Counting descriptors of weight
at most m never materializes operators: it is exact big-integer lattice-point
counting by one step, ``_TailEngine.fold``, which sums cells counted by
exponent sum (closed-form box sums) against the tails under them counted by
slack, dmax minus deficiency.  A head is one fold; each tail generation is the
same fold, one frame per generation, memoized by (generations, slack).  It
runs only on the lengths a weight cuts; the lengths it saturates come from a
prefix table of closed-form totals.  The memo and
the tables belong to one engine per (tuple, column); engines are held in a
bounded least-recently-used cache, so calls share them without unbounded
growth.  A table of every weight 1..M has one path for every rule: a numpy
int64 convolution over tails counted by slack and cut at M.  It is checked
against the big-integer engine at every pivot-ladder weight W_n below M and
at M, which also shows that no int64 value wrapped.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import json
import math
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import ParameterTuple, WeightVector

__all__ = [
    "MonomialDescriptor",
    "GrowthTable",
    "monomial_weight",
    "realize",
    "enumerate_descriptors",
    "count_descriptors",
    "family_totals",
    "growth_table",
]

FAMILIES = ("first", "second", "power_v", "power_w", "power_u")
_FAMILY_RANK = {f: i for i, f in enumerate(FAMILIES)}
_POWER_KIND = {"power_v": "v", "power_w": "w", "power_u": "u"}
# Pivot kinds of the length-0 generators; a family absent here has none.
_GENERATORS = {"first": "vw", "second": "u"}
# The engine of the growth-table column a family is counted in holds its length table.
_COLUMN = {f: "second" if f in ("second", "power_u") else "first" for f in FAMILIES}


@dataclass(frozen=True)
class MonomialDescriptor:
    """A basis element named by family, length, head cell, and tail exponents.

    head: for ``first``/``second`` of length n >= 1 the pair of head
    exponents; for power families the single exponent index (m,); for
    length 0 a single generator index — (0,) is the x-shift generator and
    (1,) the y-shift generator in family ``first``, (0,) the z-shift
    generator in family ``second``.

    tail: one exponent tuple per generation i = 0 .. n-2, low generation
    first; pairs (ξ_i, η_i) for ``first``, triples (ξ_i, η_i, ζ_i) for
    ``second``, empty for power families.
    """

    family: str
    length: int
    head: tuple[int, ...]
    tail: tuple[tuple[int, ...], ...] = ()

    def sort_key(self):
        return (_FAMILY_RANK[self.family], self.length, self.head, self.tail)

    def describe(self) -> str:
        if self.length == 0:
            return f"{_GENERATORS[self.family][self.head[0]]}0"
        if self.family in _POWER_KIND:
            return f"{_POWER_KIND[self.family]}{self.length - 1}^(p^{self.head[0]})"
        sym = "h" if self.family == "first" else "g"
        tail = "".join(f"[{','.join(map(str, t))}]" for t in self.tail)
        return f"{tail}{sym}{self.length}^{self.head}"

    def __str__(self) -> str:
        return self.describe()


def _bounds_error(msg: str):
    raise ValueError(f"descriptor out of bounds: {msg}")


def validate_descriptor(d: MonomialDescriptor, tup: ParameterTuple) -> None:
    """Raise ValueError("descriptor out of bounds: ...") unless d fits tup."""
    if d.family not in FAMILIES:
        _bounds_error(f"unknown family {d.family!r}")
    n = d.length
    if n < 0:
        _bounds_error("negative length")
    if n == 0:
        if d.tail:
            _bounds_error("length-0 descriptor with nonempty tail")
        if d.family not in _GENERATORS:
            _bounds_error("power families have length >= 1")
        heads = [(j,) for j in range(len(_GENERATORS[d.family]))]
        if d.head not in heads:
            names = " or ".join(map(str, heads))
            _bounds_error(f"length-0 {d.family}-family head must be {names}")
        return
    if d.family in _POWER_KIND:
        if d.tail:
            _bounds_error("power descriptor with nonempty tail")
        if len(d.head) != 1:
            _bounds_error("power head must be a single exponent index")
        m = d.head[0]
        bound = _power_bound(d.family, tup.materialize(n - 1))
        if not (1 <= m <= bound):
            _bounds_error(f"power exponent index {m} outside 1..{bound}")
        return
    if len(d.head) != 2:
        _bounds_error("head must be an exponent pair")
    a, b = d.head
    P, Q = _head_box(tup, d.family, n)
    if not (0 <= a < P and 0 <= b < Q):
        _bounds_error(f"{d.family}-family head {d.head} outside its box")
    if (a, b) in _excluded_heads(d.family, P, Q):
        _bounds_error("first-family head at the excluded corner cell")
    if len(d.tail) != n - 1:
        _bounds_error(f"tail must cover generations 0..{n - 2}")
    for i, t in enumerate(d.tail):
        caps = _tail_caps(tup, d.family, i)
        if len(t) != len(caps):
            _bounds_error(f"tail entry {i} must have {len(caps)} exponents")
        for e, cap in zip(t, caps):
            if not (0 <= e <= cap):
                _bounds_error(f"tail exponent {e} of generation {i} outside 0..{cap}")


# -- weights -------------------------------------------------------------------


def monomial_weight(d: MonomialDescriptor, tup: ParameterTuple) -> WeightVector:
    """Exact multidegree of the descriptor; its ``total`` is the weight."""
    validate_descriptor(d, tup)
    n = d.length
    if n == 0:
        return tup.pivot_multidegree(0, _GENERATORS[d.family][d.head[0]])
    if d.family in _POWER_KIND:
        return tup.pivot_multidegree(n - 1, _POWER_KIND[d.family]) * (tup.p ** d.head[0])
    # head cell (ξ, η) for ``first``, (ξ, ζ) for ``second``; tail cells (ξ, η[, ζ])
    xi, other = d.head
    acc = tup.pivot_multidegree(n - 1, "v") * (xi + 1)
    acc = acc + tup.pivot_multidegree(n - 1, "w" if d.family == "first" else "u") * (other + 1)
    for i, cell in enumerate(d.tail):
        for kind, e in zip("vwu", cell):
            acc = acc - tup.pivot_multidegree(i, kind) * e
    return acc


# -- realization ----------------------------------------------------------------


def realize(d: MonomialDescriptor, ctx) -> "Derivation":
    """Closed-form operator for a descriptor inside a depth-N context.

    Heads follow the explicit closed forms (the first family carries a
    minus sign on its y-shift component; the second family is a single
    positive term); tails multiply in as divided-power monomials.  Terms
    whose closed-form exponent would be negative are dropped.
    """
    from .derivations import Derivation, pivot, pivot_power
    from .dpalgebra import AlgebraElement

    tup = ctx.tup
    validate_descriptor(d, tup)
    n = d.length
    if n + 1 > ctx.depth:
        raise ValueError(
            f"generation beyond truncation: length {n} needs depth >= {n + 1}"
        )
    if n == 0:
        return pivot(ctx, _GENERATORS[d.family][d.head[0]], 0)
    g = n - 1
    if d.family in _POWER_KIND:
        return pivot_power(ctx, _POWER_KIND[d.family], g, d.head[0])
    PS, PR = tup.powers(g)

    tail_exps: dict[tuple[int, int], int] = {}
    for i, t in enumerate(d.tail):
        for axis, e in enumerate(t):
            if e:
                tail_exps[(i, axis)] = e

    def head_term(kind: str, x_exp: int, other_axis: int, other_exp: int):
        if x_exp < 0 or other_exp < 0:
            return Derivation.zero(ctx)
        exps = dict(tail_exps)
        if x_exp:
            exps[(g, 0)] = x_exp
        if other_exp:
            exps[(g, other_axis)] = other_exp
        return pivot(ctx, kind, g + 1).lmul(AlgebraElement.monomial(ctx, exps))

    if d.family == "first":
        xi, eta = d.head
        term_v = head_term("v", PS - 1 - xi, 1, PR - 2 - eta)
        term_w = head_term("w", PS - 2 - xi, 1, PR - 1 - eta)
        return term_v - term_w
    xi, zeta = d.head
    return head_term("u", PS - 2 - xi, 2, PR - 1 - zeta)


# -- exact counting engine -------------------------------------------------------


def _box_prefix(s: int, sides) -> int:
    """Lattice points of [0, sides[0]) × [0, sides[1]) × ... with coordinate sum <= s.

    Inclusion–exclusion over the set of sides a point overshoots: shifting
    those coordinates down by their sides leaves a point of the simplex of
    sum <= s - (their sides), and that simplex in d dimensions holds
    C(t + d, d) points for t >= 0.
    """
    d = len(sides)
    corners = [(0, 1)]
    for side in sides:
        corners += [(c + side, -sign) for c, sign in corners]
    return sum(sign * math.comb(s - c + d, d) for c, sign in corners if c <= s)


def _tail_caps(tup: ParameterTuple, family: str, i: int) -> tuple[int, ...]:
    """Largest exponents of a generation-i tail cell: (ξ, η) for ``first``,
    (ξ, η, ζ) for ``second``; the arity is the length."""
    PS, PR = tup.powers(i)
    return (PS - 1, PR - 1) if family == "first" else (PS - 1, PR - 1, PR - 1)


class _TailEngine:
    """Exact big-integer counting of cells over tails for one family
    (``fold``), and the length tables of the families in its column
    (``saturated``)."""

    def __init__(self, tup: ParameterTuple, family: str):
        assert family in ("first", "second")
        self.tup = tup
        self.family = family
        self._caps: list[int] = []  # largest exponent sum of a generation-i cell
        self._sides: list[tuple[int, ...]] = []  # its box of exponents
        self._totals: list[int] = [1]
        self._dmax: list[int] = [0]
        self._memo: dict[tuple[int, int], int] = {}
        # family -> columns indexed by length n: least weight, running maximum
        # of the saturation weights, closed-form totals summed over 1..n
        self._tables: dict[str, tuple[list[int], list[int], list[int]]] = {}
        self._lock = threading.RLock()

    def _extend(self, k: int) -> None:
        with self._lock:
            while len(self._caps) < k:
                i = len(self._caps)
                caps = _tail_caps(self.tup, self.family, i)
                cap = sum(caps)
                self._caps.append(cap)
                self._sides.append(tuple(c + 1 for c in caps))
                self._totals.append(self._totals[-1] * math.prod(self._sides[-1]))
                self._dmax.append(self._dmax[-1] + cap * self.tup.pivot_weight(i))

    def total(self, k: int) -> int:
        self._extend(k)
        return self._totals[k]

    def dmax(self, k: int) -> int:
        self._extend(k)
        return self._dmax[k]

    def fold(self, k: int, t: int, W: int, top: int, prefix) -> int:
        """Pairs (cell, tail over generations 0..k-1) with s·W + σ <= t, for
        t >= 0 and the engine extended to k: s is the cell's exponent sum,
        prefix(s) counts the cells with sum <= s (s = 0..top), and σ is the
        tail's slack dmax(k) − D (D: deficiency).

        A tail cell's box is symmetric under e ↔ cap − e, so tails counted by
        slack are those counted by deficiency.  Sums s with s·W + dmax(k) <= t
        keep every tail; each larger sum s <= t // W asks for the tails with
        slack u = t − s·W or less (0 <= u < dmax(k)), memoized as (k, u), which
        are generation k-1's cells over generations 0..k-2: the same fold, one
        frame per generation.
        """
        dmax = self._dmax[k]
        s_cut = min(t // W, top)
        s_full = min((t - dmax) // W, s_cut)
        acc = prefix(s_full) * self._totals[k] if s_full >= 0 else 0
        for s in range(max(s_full + 1, 0), s_cut + 1):
            c = prefix(s) - prefix(s - 1)
            if c:
                u = t - s * W
                count = self._memo.get((k, u))
                if count is None:
                    sides = self._sides[k - 1]
                    count = self._memo[k, u] = self.fold(
                        k - 1,
                        u,
                        self.tup.pivot_weight(k - 1),
                        self._caps[k - 1],
                        lambda v: _box_prefix(v, sides),
                    )
                acc += c * count
        return acc

    def saturated(self, family: str, m: int) -> tuple[int, int, int]:
        """(n0, n1, count): at weight m, lengths 1..n0 of ``family`` are saturated
        (hold all their ``count`` descriptors) and m cuts lengths n0+1..n1.

        Length n is saturated once m >= (P + Q) W_{n-1} for head box (P, Q),
        or m >= W_{n-1} p^M for the power families' exponent bound M.
        The table grows only to the lengths whose least weight is <= m.
        """
        tup = self.tup
        with self._lock:
            least, sat, prefix = self._tables.setdefault(family, ([0], [0], [0]))
            while (lw := _least_weight(self, family, len(least))) <= m:
                n = len(least)
                W = tup.pivot_weight(n - 1)
                if family in _POWER_KIND:
                    top = W * _power_bound(family, tup.powers(n - 1))
                else:
                    top = sum(_head_box(tup, family, n)) * W
                least.append(lw)
                sat.append(max(sat[-1], top))
                prefix.append(prefix[-1] + _length_total(self, family, n))
            n0 = bisect.bisect_right(sat, m) - 1
            return n0, bisect.bisect_right(least, m) - 1, prefix[n0]


# Engines keep their memo and length tables between calls (the quasilinear
# rows reuse both); eight is the two columns of each of the last four tuples.
@functools.lru_cache(maxsize=8)
def _engine(tup: ParameterTuple, family: str) -> _TailEngine:
    return _TailEngine(tup, family)


def _head_box(tup: ParameterTuple, family: str, n: int) -> tuple[int, int]:
    """Box sizes (P, Q) of head cells of a length-n descriptor (n >= 1)."""
    P, Q = tup.powers(n - 1)
    return (P, Q) if family == "first" else (P - 1, Q)


def _excluded_heads(family: str, P: int, Q: int) -> tuple[tuple[int, int], ...]:
    """Cells of the P × Q head box that are not heads: the bottom-right
    corner (P-1, Q-1) for ``first``, none for ``second``."""
    return ((P - 1, Q - 1),) if family == "first" else ()


def _head_count(family: str, P: int, Q: int, s: int) -> int:
    """Head cells of the family's P × Q box with exponent sum <= s."""
    return _box_prefix(s, (P, Q)) - sum(a + b <= s for a, b in _excluded_heads(family, P, Q))


def _head_cells(tup: ParameterTuple, family: str, n: int):
    """The head cells of a length-n descriptor (n >= 1), row by row."""
    P, Q = _head_box(tup, family, n)
    excluded = _excluded_heads(family, P, Q)
    return ((a, b) for a in range(P) for b in range(Q) if (a, b) not in excluded)


def _power_bound(family: str, pair: tuple[int, int]) -> int:
    """The entry of a generation pair, (S, R) or (p^S, p^R), that bounds the
    exponent index of a power family: S for ``power_v``, R for ``power_w``
    and ``power_u``."""
    return pair[family != "power_v"]


def _length_total(eng: _TailEngine, family: str, n: int) -> int:
    """Descriptors of ``family`` at exact length n, eng the engine of its column:
    the generators at n = 0, then S or R for the power families and
    (P·Q − |excluded|)·T_{n−1} for the headed families (T: tails' ``total``)."""
    if n == 0:
        return len(_GENERATORS.get(family, ""))
    if family in _POWER_KIND:
        return _power_bound(family, eng.tup.materialize(n - 1))
    P, Q = _head_box(eng.tup, family, n)
    return (P * Q - len(_excluded_heads(family, P, Q))) * eng.total(n - 1)


def _least_weight(eng: _TailEngine, family: str, n: int) -> int:
    """Least weight of a length-n descriptor (n >= 1), eng the engine of the
    family's column: p W_{n-1} for the power families, and 2 W_{n-1} − dmax(n-1)
    for ``first`` and ``second`` (the head (0, 0) under the tail of greatest
    deficiency); each grows with n."""
    W = eng.tup.pivot_weight(n - 1)
    return eng.tup.p * W if family in _POWER_KIND else 2 * W - eng.dmax(n - 1)


def _lengths(tup: ParameterTuple, family: str, m: int):
    """Yield (n, W_{n-1}) for every length n >= 1 whose least weight is <= m."""
    eng = _engine(tup, _COLUMN[family])
    for n in itertools.count(1):
        if _least_weight(eng, family, n) > m:
            return
        yield n, tup.pivot_weight(n - 1)


def _power_weights(tup: ParameterTuple, family: str, n: int, m: int) -> list[int]:
    """Weights W_{n-1} p^j <= m of the length-n power descriptors, j = 1, 2, ..."""
    bound = _power_bound(family, tup.materialize(n - 1))
    weights = []
    val = tup.pivot_weight(n - 1)
    for _ in range(bound):
        val *= tup.p
        if val > m:
            break
        weights.append(val)
    return weights


def _count_headed(eng: _TailEngine, n: int, m: int) -> int:
    """Length-n descriptors of the engine's family with weight <= m (n >= 1)."""
    # a head of sum s over a tail of slack σ weighs _least_weight + s·W_{n-1} + σ
    if m < 1 or (t := m - _least_weight(eng, eng.family, n)) < 0:
        return 0
    P, Q = _head_box(eng.tup, eng.family, n)
    return eng.fold(
        n - 1, t, eng.tup.pivot_weight(n - 1), P + Q - 2, lambda s: _head_count(eng.family, P, Q, s)
    )


def count_descriptors(
    tup: ParameterTuple,
    max_weight: int,
    family: str | None = None,
    length: int | None = None,
):
    """Exact number of descriptors with weight <= max_weight.

    With ``family`` a dict over all five families collapses to one integer;
    with ``length`` the count is restricted to that exact length, otherwise
    it sums over all lengths (only finitely many contribute): the leading
    lengths that max_weight saturates (see ``_TailEngine.saturated``) add
    their closed-form totals from a prefix table, and only the lengths
    above them whose least weight is <= max_weight are counted one by one.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if length is not None and length < 0:
        raise ValueError("length must be >= 0")
    fams = FAMILIES if family is None else (family,)
    for f in fams:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
    out = {}
    engines = {}
    for f in fams:
        col = _COLUMN[f]
        eng = engines[col] = engines.get(col) or _engine(tup, col)
        if length is None:
            n0, n1, acc = eng.saturated(f, max_weight)
            lengths = [0, *range(n0 + 1, n1 + 1)]
        else:
            acc, lengths = 0, [length]
        for n in lengths:
            if n == 0:
                acc += _length_total(eng, f, 0) if max_weight >= 1 else 0
            elif f in _POWER_KIND:
                acc += len(_power_weights(tup, f, n, max_weight))
            else:
                acc += _count_headed(eng, n, max_weight)
        out[f] = acc
    return out if family is None else out[family]


def family_totals(tup: ParameterTuple, length: int) -> dict[str, int]:
    """Total descriptor counts at one exact length, with no weight bound."""
    if length < 0:
        raise ValueError("length must be >= 0")
    return {f: _length_total(_engine(tup, _COLUMN[f]), f, length) for f in FAMILIES}


# -- enumeration -----------------------------------------------------------------


def _tail_vectors(tup: ParameterTuple, family: str, k: int, req: int):
    """All tails over generations 0..k-1 with deficiency >= req, pruned."""
    eng = _engine(tup, family)

    def rec(i: int, need: int):
        if i < 0:
            if need <= 0:
                yield ()
            return
        if need > eng.dmax(i + 1):
            return
        caps = _tail_caps(tup, family, i)
        W = tup.pivot_weight(i)
        for cell in itertools.product(*(range(c + 1) for c in caps)):
            d = sum(cell) * W
            for rest in rec(i - 1, need - d):
                yield rest + (cell,)

    yield from rec(k - 1, req)


def enumerate_descriptors(
    tup: ParameterTuple,
    max_weight: int,
    families=None,
):
    """Every descriptor of weight <= max_weight, sorted by (weight, key)."""
    if max_weight < 1:
        return iter(())
    fams = tuple(FAMILIES if families is None else families)
    for f in fams:
        if f not in FAMILIES:
            raise ValueError(f"unknown family {f!r}")
    found: list[tuple[int, MonomialDescriptor]] = []
    for f in fams:
        for j in range(_length_total(_engine(tup, _COLUMN[f]), f, 0)):
            found.append((1, MonomialDescriptor(f, 0, (j,))))
        for n, W in _lengths(tup, f, max_weight):
            if f in _POWER_KIND:
                for j, val in enumerate(_power_weights(tup, f, n, max_weight), 1):
                    found.append((val, MonomialDescriptor(f, n, (j,))))
                continue
            for xi, et in _head_cells(tup, f, n):
                hw = (xi + et + 2) * W
                req = hw - max_weight
                for tail in _tail_vectors(tup, f, n - 1, req):
                    d = MonomialDescriptor(f, n, (xi, et), tail)
                    wt = hw - sum(
                        sum(cell) * tup.pivot_weight(i) for i, cell in enumerate(tail)
                    )
                    found.append((wt, d))
    found.sort(key=lambda t: (t[0], t[1].sort_key()))
    return iter(d for _, d in found)


# -- growth tables ----------------------------------------------------------------


def _dense_exact_rows(tup: ParameterTuple, M: int) -> dict:
    """Per-family numpy int64 counts at every exact weight 1..M (M >= 1).

    Tails are counted by slack σ = dmax(k) − D (D: deficiency); a tail cell's
    box is symmetric under e ↔ cap − e, so the counts by slack are those by
    deficiency.  Head sum s and slack σ weigh base + s·W_{n-1} + σ, with
    base the least weight of length n (``_least_weight``), so each
    distribution is cut at σ = M − base; base grows with n, so the next
    length's fold never needs an entry past the cut.
    """
    out = {f: np.zeros(M + 1, dtype=np.int64) for f in FAMILIES}
    for fam, kinds in _GENERATORS.items():
        out[fam][1] = len(kinds)
    for fam in ("first", "second"):
        eng = _engine(tup, fam)
        arr = out[fam]
        dist = np.ones(1, dtype=np.int64)  # tails by slack, k = 0
        for n, W in _lengths(tup, fam, M):
            k = n - 1
            base = _least_weight(eng, fam, n)
            if k:
                # Fold in generation k-1.  Its kernel is supported on multiples
                # of W_{k-1} only, so a handful of shifted adds beats a dense
                # convolution.
                Wk, sides = tup.pivot_weight(k - 1), eng._sides[k - 1]
                cut = min(eng.dmax(k), M - base) + 1
                prev, dist = dist, np.zeros(cut, dtype=np.int64)
                for s in range(min(eng._caps[k - 1], (cut - 1) // Wk) + 1):
                    c = _box_prefix(s, sides) - _box_prefix(s - 1, sides)
                    dist[s * Wk : s * Wk + len(prev)] += c * prev[: cut - s * Wk]
            P, Q = _head_box(tup, fam, n)
            for s in range(min(P + Q - 2, (M - base) // W) + 1):
                c = _head_count(fam, P, Q, s) - _head_count(fam, P, Q, s - 1)
                lo = base + s * W
                arr[lo : lo + len(dist)] += c * dist[: M + 1 - lo]
    for fam in _POWER_KIND:
        for n, _ in _lengths(tup, fam, M):
            for val in _power_weights(tup, fam, n, M):
                out[fam][val] += 1
    return out


_CSV_COLUMNS = (
    "m",
    "gamma_total",
    "first",
    "second",
    "power_first",
    "power_second",
    "log_gamma_over_log_m",
)
_JSON_COLUMNS = ["m", "first", "second", "power_first", "power_second", "gamma_total"]
# Rows rendered per piece of table text (GrowthTable._text).
_RENDER_CHUNK = 4096


def _validated_columns(rows) -> tuple[list, ...]:
    """Six list columns, in row order, of (m, first, second, power_first,
    power_second, total) rows.  Raises ValueError unless every total is the
    sum of its four counts, weights strictly increase and totals never
    decrease."""
    ms, *_, totals = cols = ([], [], [], [], [], [])
    for row in rows:
        m, fi, se, pf, ps, tot = row
        if fi + se + pf + ps != tot:
            raise ValueError("growth table row total mismatch")
        if ms and (m <= ms[-1] or tot < totals[-1]):
            raise ValueError("growth table rows must increase")
        for col, v in zip(cols, row):
            col.append(v)
    return cols


class _Rows(Sequence):
    """Read-only view of growth-table columns as row tuples.

    ``len`` is O(1); an index or iteration yields a tuple of the cells, a
    slice a list of tuples, and the view equals a list of the same tuples.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols):
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(*(col[i] for col in self._cols)))
        return tuple(col[i] for col in self._cols)

    def __iter__(self):
        return zip(*self._cols)

    def __eq__(self, other):
        if not isinstance(other, (list, _Rows)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class GrowthTable:
    """Cumulative per-family basis counts by weight, stored by column.

    Column ``ms`` holds the weights m in increasing order; ``first``,
    ``second``, ``power_first`` and ``power_second`` the counts of weight
    <= m, and ``totals`` their sums.  A dense table (every weight 1..M)
    has ``ms = range(1, M + 1)`` and count columns that are ``memoryview``
    views, format "q", of the int64 arrays the counts were summed in (no
    copy; such a table cannot be pickled); a checkpoint table, and one read
    from CSV, has lists of Python ints, whose counts outgrow int64.  Treat
    the columns as read-only.

    ``rows`` views the columns as (m, first, second, power_first,
    power_second, total) tuples of plain ints.  ``GrowthTable(p,
    tuple_spec, rows)`` stores such tuples as list columns and validates
    them.
    """

    __slots__ = ("p", "tuple_spec", "ms", "first", "second", "power_first", "power_second", "totals")

    def __init__(self, p: int, tuple_spec: str, rows=()):
        self._set(p, tuple_spec, _validated_columns(rows))

    @classmethod
    def _of_columns(cls, p: int, tuple_spec: str, cols) -> "GrowthTable":
        """A table over the given columns as they are: no copy, no check."""
        table = cls.__new__(cls)
        table._set(p, tuple_spec, cols)
        return table

    def _set(self, p: int, tuple_spec: str, cols) -> None:
        self.p, self.tuple_spec = p, tuple_spec
        self.ms, self.first, self.second, self.power_first, self.power_second, self.totals = cols

    def _row_columns(self) -> tuple:
        """The six columns in row order."""
        return (self.ms, self.first, self.second, self.power_first, self.power_second, self.totals)

    @property
    def rows(self) -> _Rows:
        return _Rows(self._row_columns())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.p, self.tuple_spec) == (other.p, other.tuple_spec) and self.rows == other.rows

    def __repr__(self) -> str:
        return (
            f"GrowthTable(p={self.p!r}, tuple_spec={self.tuple_spec!r}, "
            f"rows=<{len(self.ms)} rows>)"
        )

    def gamma(self, m: int) -> int:
        """Cumulative total at a computed row m."""
        i = bisect.bisect_left(self.ms, m)
        if i == len(self.ms) or self.ms[i] != m:
            raise KeyError(f"no computed row at weight {m}")
        return self.totals[i]

    def _text(self, fmt: str):
        """The table's CSV (fmt "csv") or JSON text in pieces: the header,
        one piece per _RENDER_CHUNK rows, then the footer."""
        if fmt == "csv":
            yield ",".join(_CSV_COLUMNS)
        else:
            head = {"p": self.p, "tuple": self.tuple_spec, "columns": _JSON_COLUMNS, "rows": []}
            yield json.dumps(head)[: -len("]}")]
        cols = self._row_columns()
        for lo in range(0, len(self.ms), _RENDER_CHUNK):
            rows = zip(*(col[lo : lo + _RENDER_CHUNK] for col in cols))
            if fmt == "csv":
                yield "".join(
                    [
                        f"\r\n{m},{tot},{fi},{se},{pf},{ps},{math.log(tot) / math.log(m):.12g}"
                        if m > 1 and tot > 0
                        else f"\r\n{m},{tot},{fi},{se},{pf},{ps},"
                        for m, fi, se, pf, ps, tot in rows
                    ]
                )
            else:
                yield (", " if lo else "") + ", ".join(
                    [f"[{m}, {fi}, {se}, {pf}, {ps}, {tot}]" for m, fi, se, pf, ps, tot in rows]
                )
        yield "\r\n" if fmt == "csv" else "]}"

    def to_csv(self) -> str:
        """CSV text, byte for byte what ``csv.writer`` writes (no cell needs quoting)."""
        return "".join(self._text("csv"))

    @classmethod
    def from_csv(cls, source, p: int = 0, tuple_spec: str = "") -> "GrowthTable":
        """The table of CSV text, given as a ``str`` or as an open text file,
        which is parsed line by line."""
        rd = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
        header = next(rd, [])  # an empty file has no header
        if tuple(h.strip() for h in header) != _CSV_COLUMNS:
            raise ValueError("unrecognized growth table header")
        cells = (map(int, rec[:6]) for rec in rd if rec)
        return cls(p, tuple_spec, ((m, fi, se, pf, ps, tot) for m, tot, fi, se, pf, ps in cells))

    def to_json(self) -> str:
        """What ``json.dumps`` writes for the table with ``rows`` as a list of lists."""
        return "".join(self._text("json"))


def _columns(counts):
    """Growth-table columns (first, second, power_first, power_second) of
    per-family counts, plain ints or arrays alike."""
    return (
        counts["first"],
        counts["second"],
        counts["power_v"] + counts["power_w"],
        counts["power_u"],
    )


# Most rows a growth table holds, dense or by checkpoints.
TABLE_ROW_CAP = 200_000


def _dense_columns(dense) -> list:
    """Cumulative (first, second, power_first, power_second, total) columns
    over weights 1..M of ``_dense_exact_rows`` counts, which this consumes:
    each family sum is cumulated in place, and each column is a view of its
    int64 array as format "q", whose items are plain ints."""
    fams = [arr[1:] for arr in _columns(dense)]
    dense.clear()
    total = np.zeros_like(fams[0])
    for arr in fams:
        np.cumsum(arr, out=arr)
        total += arr
    return [memoryview(arr).cast("B").cast("q") for arr in (*fams, total)]


def growth_table(
    tup: ParameterTuple,
    max_weight: int,
    weights: list[int] | None = None,
) -> GrowthTable:
    """Exact growth table up to max_weight.

    Without ``weights`` the table has one row per integer 1..max_weight
    (refused with "table too large" beyond TABLE_ROW_CAP); with ``weights`` it
    has exactly those checkpoint rows, which permits astronomically large
    weights since each row is an O(polylog) big-integer computation.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if weights is None:
        ms = range(1, max_weight + 1)
    else:
        ms = sorted(set(int(w) for w in weights))
        if any(w < 1 for w in ms):
            raise ValueError("checkpoint weights must be >= 1")
        if ms and ms[-1] > max_weight:
            raise ValueError("checkpoint weight beyond max_weight")
    if len(ms) > TABLE_ROW_CAP:
        raise ValueError(f"table too large: {len(ms)} rows exceed the limit of {TABLE_ROW_CAP}")
    if weights is not None:
        counted = (_columns(count_descriptors(tup, m)) for m in ms)
        return GrowthTable(tup.p, tup.spec, ((m, *c, sum(c)) for m, c in zip(ms, counted)))
    # int64 is safe: each value the dense path writes is at most the number of
    # descriptors of weight <= max_weight (a kept tail takes head (0, 0), a
    # head of both families), i.e. the last total, and that matches the
    # big-integer count only below 2^63.  Checked at every pivot-ladder weight
    # below max_weight, then at the last row; cumulative sums of nonnegative
    # counts never decrease.
    cols = _dense_columns(_dense_exact_rows(tup, max_weight))
    for n in itertools.count():
        m = min(tup.pivot_weight(n), max_weight)
        counts = _columns(count_descriptors(tup, m))
        if tuple(col[m - 1] for col in cols) != (*counts, sum(counts)):
            raise RuntimeError("counting engines disagree")
        if m == max_weight:
            return GrowthTable._of_columns(tup.p, tup.spec, (ms, *cols))
