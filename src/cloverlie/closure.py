"""Brute-force restricted closure over F_p and the verification suites.

The closure engine seeds an echelonized, multidegree-graded basis with the
three generators and closes it under brackets (while weight sums stay within
the cap) and p-th powers (while p times the weight stays within the cap).
The cap may never exceed the trusted weight bound of the truncation: below
that bound the truncated model is a faithful image of the full algebra, so
equalities proved here are equalities of the real object.

Suites return VerificationReport values: every check is pass / fail /
outside-trusted-zone, failures carry a witness that is rendered only when the
check fails, and reports are deterministic (byte-identical across runs).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .params import ParameterTuple
from .dpalgebra import AlgebraElement, ContextMismatchError, DpContext
from .derivations import (
    Derivation,
    _KIND_TAIL_AXES,
    ad_power,
    bracket,
    p_power,
    p_power_iter,
    pivot,
    pivot_power,
)
from .monomials import (
    MonomialDescriptor,
    _COLUMN,
    _POWER_KIND,
    _head_cells,
    _power_bound,
    _tail_caps,
    count_descriptors,
    enumerate_descriptors,
    monomial_weight,
    realize,
)

__all__ = [
    "GradedBasis",
    "VerificationReport",
    "CheckRecord",
    "NilResult",
    "restricted_closure",
    "verify_basis_theorem",
    "verify_grading",
    "relation_suite",
    "nil_index",
    "sample_nil_chains",
    "self_similarity_decompose",
]


# -- reports ---------------------------------------------------------------------


class CheckRecord(NamedTuple):
    """One check outcome; an immutable, hashable tuple in field order."""

    suite: str
    check_id: str
    params: tuple[tuple[str, object], ...]
    status: str  # pass | fail | outside-trusted-zone
    witness: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "check": self.check_id,
                "params": dict(self.params),
                "status": self.status,
                "witness": self.witness,
            },
            sort_keys=True,
        )


class VerificationReport:
    """The check outcomes of one suite, in the order they were recorded.

    A pass without a witness costs a counter bump and its parameter values
    appended to a flat column, one column per check id and parameter names
    in call order.  Every other record is kept whole.  ``records`` rebuilds
    the CheckRecord list on demand; the counts, failures and summary read
    only the pass count and the non-pass records.
    """

    __slots__ = ("suite", "_passes", "_columns", "_entries", "_others")

    def __init__(self, suite: str):
        self.suite = suite
        self._passes = 0
        # (check_id, *param names) -> (that key, the values of its passes, flat)
        self._columns: dict[tuple, tuple[tuple, list]] = {}
        # one per record: its column key, or the whole CheckRecord
        self._entries: list = []
        self._others: list[CheckRecord] = []  # the non-pass records

    def add(self, check_id: str, status: str, witness: str | None = None, **params):
        if status == "pass":
            self._passes += 1
            if witness is None:
                key = (check_id, *params)
                column = self._columns.get(key)
                if column is None:
                    column = self._columns[key] = (key, [])
                self._entries.append(column[0])
                column[1].extend(params.values())
                return
        rec = CheckRecord(self.suite, check_id, tuple(sorted(params.items())), status, witness)
        self._entries.append(rec)
        if status != "pass":
            self._others.append(rec)

    def check(self, check_id: str, ok: bool, witness: Callable[[], str] = str, **params):
        """Record a pass, or a fail with the string that ``witness()`` renders.

        The witness is a zero-argument callable, called only when ``ok`` is
        false, so passing checks never render their operands.  The default
        renders the empty string.
        """
        self.add(check_id, "pass" if ok else "fail", None if ok else witness(), **params)

    def merge(self, other: VerificationReport, prefix: str = ""):
        """Append the records of another report under this suite, each check
        id prefixed."""
        self._passes += other._passes
        renamed = {}
        for key, (_, values) in other._columns.items():
            new = (prefix + key[0], *key[1:])
            column = self._columns.get(new)
            if column is None:
                column = self._columns[new] = (new, [])
            column[1].extend(values)
            renamed[key] = column[0]
        for entry in other._entries:
            if type(entry) is CheckRecord:
                entry = entry._replace(suite=self.suite, check_id=prefix + entry.check_id)
                if entry.status != "pass":
                    self._others.append(entry)
            else:
                entry = renamed[entry]
            self._entries.append(entry)

    @property
    def records(self) -> list[CheckRecord]:
        """A new list of every record, params sorted by name."""
        params = {key: _column_params(key[1:], values) for key, values in self._columns.values()}
        suite = self.suite
        return [
            entry if type(entry) is CheckRecord
            else CheckRecord(suite, entry[0], next(params[entry]), "pass")
            for entry in self._entries
        ]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self._others)

    def counts(self) -> dict[str, int]:
        out = {"pass": self._passes, "fail": 0, "outside-trusted-zone": 0}
        for r in self._others:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def failures(self) -> list[CheckRecord]:
        return [r for r in self._others if r.status == "fail"]

    def to_json_lines(self) -> str:
        return "\n".join(r.to_json() for r in self.records)

    def summary(self) -> str:
        c = self.counts()
        lines = [
            f"suite {self.suite}: {c['pass']} pass, {c['fail']} fail, "
            f"{c['outside-trusted-zone']} outside trusted zone"
        ]
        for r in self._others:
            ps = " ".join(f"{k}={v}" for k, v in r.params)
            lines.append(f"  {r.status.upper()}: {r.check_id} {ps}")
            if r.witness:
                lines.append(f"    witness: {r.witness}")
        return "\n".join(lines)


def _column_params(names: tuple[str, ...], values: list):
    """The sorted params tuples of a column's records, one per record."""
    if not names:
        return itertools.repeat(())
    order = sorted(range(len(names)), key=names.__getitem__)
    rows = zip(*[iter(values)] * len(names))
    return (tuple((names[i], row[i]) for i in order) for row in rows)


# -- echelonized graded basis ------------------------------------------------------


class _Echelon:
    """Reduced echelon rows over F_p keyed by their leading coordinate.

    A row is a dict in the derivation layout {(var, level, degree, exps): c},
    so ``Derivation.terms`` is a row as it stands and the lead is its least
    key.  Arguments are copied; ``insert`` reduces the stored rows in place.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[tuple, dict] = {}

    def reduce(self, vec: dict) -> dict:
        p = self.p
        vec = dict(vec)
        while True:
            hits = [k for k in vec if k in self.rows]
            if not hits:
                return vec
            k = min(hits)
            c = vec[k]
            for rk, rc in self.rows[k].items():
                nc = (vec.get(rk, 0) - c * rc) % p
                if nc:
                    vec[rk] = nc
                else:
                    vec.pop(rk, None)

    def insert(self, vec: dict):
        """Reduce and insert; returns the new reduced row or None if dependent."""
        p = self.p
        vec = self.reduce(vec)
        if not vec:
            return None
        lead = min(vec)
        inv = pow(vec[lead], p - 2, p)
        vec = {k: (c * inv) % p for k, c in vec.items()}
        for rlead, row in self.rows.items():
            c = row.get(lead)
            if c:
                for k, vc in vec.items():
                    nc = (row.get(k, 0) - c * vc) % p
                    if nc:
                        row[k] = nc
                    else:
                        row.pop(k, None)
        self.rows[lead] = vec
        return vec

    @property
    def rank(self) -> int:
        return len(self.rows)


class GradedBasis:
    """Echelonized span over F_p, one echelon per multidegree within the cap:
    the closure's basis and the family spans of ``verify_basis_theorem``.
    ``member`` is the one membership test; ``restricted_closure`` appends
    its (multidegree, vector) pairs to ``vectors`` in insertion order."""

    def __init__(self, ctx: DpContext, cap: int):
        self.ctx = ctx
        self.cap = cap
        self.components: dict[tuple[int, int, int], _Echelon] = {}
        self.vectors: list[tuple[tuple[int, int, int], Derivation]] = []

    def insert(self, md, D: Derivation) -> dict | None:
        """Insert D at multidegree md: the new reduced row, or None if dependent."""
        ech = self.components.get(md)
        if ech is None:
            ech = self.components[md] = _Echelon(self.ctx.p)
        return ech.insert(D.terms)

    def dims_by_multidegree(self) -> dict[tuple[int, int, int], int]:
        return {md: e.rank for md, e in sorted(self.components.items()) if e.rank}

    def dims_by_weight(self) -> dict[int, int]:
        return _dims_by_weight(self.dims_by_multidegree())

    def dimension(self) -> int:
        return sum(e.rank for e in self.components.values())

    def member(self, parts: dict) -> bool:
        """Whether every graded part lies in the span; ``parts`` is the
        {multidegree: Derivation} dict of ``graded_components()``."""
        for md, part in parts.items():
            ech = self.components.get(md)
            if ech is None or ech.reduce(part.terms):
                return False
        return True


def _dims_by_weight(dims: dict[tuple[int, int, int], int]) -> dict[int, int]:
    """Per-multidegree dimensions summed by weight, in increasing weight."""
    out: dict[int, int] = {}
    for md, n in dims.items():
        out[sum(md)] = out.get(sum(md), 0) + n
    return dict(sorted(out.items()))


def restricted_closure(generators: list[Derivation], weight_cap: int) -> GradedBasis:
    """Close the span of the generators under bracket and p-th power.

    The graded parts of the generators within the cap are inserted first.
    Then the walk visits the basis vectors by index j = 0, 1, ... while j is
    below the current number of vectors, which grows as results are
    inserted: it brackets vectors[i] with vectors[j] for i = 0 .. j in turn
    while the two weights sum to at most the cap, and then takes the p-th
    power of vectors[j] if p times its weight stays within the cap.  Every
    nonzero result is split into graded parts; each part within the cap that
    the basis accepts is appended to ``vectors`` as a copy of its new
    reduced row.  The walk keeps no state beyond the basis and the index.
    The cap must not exceed the trusted weight bound of the generators'
    context.

    Every call builds a new basis; nothing is cached here.  The basis and
    grading suites and the nil sampler instead share one closure of the
    standard generators per (tuple, depth) and treat it as read-only.
    """
    if not generators:
        raise ValueError("need at least one generator")
    ctx = generators[0].ctx
    for g in generators[1:]:
        if g.ctx != ctx:
            raise ContextMismatchError("context mismatch")
    bound = ctx.tup.trusted_weight_bound(ctx.depth)
    if weight_cap > bound:
        raise ValueError(
            f"outside trusted zone: cap {weight_cap} exceeds trusted bound {bound} "
            f"at depth {ctx.depth}"
        )
    p = ctx.p
    basis = GradedBasis(ctx, weight_cap)
    vectors = basis.vectors

    def admit(D: Derivation):
        for md, part in D.graded_components().items():
            if sum(md) <= weight_cap and (row := basis.insert(md, part)) is not None:
                # _of copies the row, which later inserts reduce in place
                vectors.append((md, Derivation._of(ctx, row)))

    for g in generators:
        admit(g)

    j = 0
    while j < len(vectors):
        mdj, Dj = vectors[j]
        wj = sum(mdj)
        for i in range(j + 1):
            mdi, Di = vectors[i]
            if sum(mdi) + wj <= weight_cap:
                admit(bracket(Di, Dj))
        if p * wj <= weight_cap:
            admit(p_power(Dj))
        j += 1
    return basis


# Largest standard closure that is built.  The closure brackets every pair
# of basis vectors within the cap, so its time grows with the square of the
# dimension.
MAX_CLOSURE_DIM = 10_000


def _standard_generators(ctx: DpContext) -> list[Derivation]:
    return [pivot(ctx, "v", 0), pivot(ctx, "w", 0), pivot(ctx, "u", 0)]


@functools.lru_cache(maxsize=1)
def _standard_closure(tup: ParameterTuple, depth: int) -> GradedBasis:
    """Closure of the generation-0 pivots up to the trusted weight bound.

    One closure serves every suite of a run on the same (tuple, depth).
    The basis is shared, so callers must treat it as read-only.  Its
    dimension equals the descriptor count at the cap, so a closure above
    MAX_CLOSURE_DIM is refused with ValueError before any bracket is taken.
    """
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    dim = sum(count_descriptors(tup, cap).values())
    if dim > MAX_CLOSURE_DIM:
        raise ValueError(
            f"closure too large: {dim} basis elements at depth {depth} "
            f"exceed the limit {MAX_CLOSURE_DIM}"
        )
    return restricted_closure(_standard_generators(ctx), cap)


# -- relation suite -----------------------------------------------------------------


def _head_cell(ctx: DpContext, family: str, i: int, head: tuple[int, int]) -> Derivation:
    """Closed form of the length-(i+1) head cell of a family, all-zero tail."""
    zero = (0,) * len(_tail_caps(ctx.tup, family, 0))
    return realize(MonomialDescriptor(family, i + 1, head, (zero,) * i), ctx)


def relation_suite(
    tup: ParameterTuple, depth: int, base_index: int = 0
) -> VerificationReport:
    """Exact structural identities of the recursive generators.

    Verifies, for every generation i from base_index up to the truncation
    boundary: the p^m-power ladder closed forms for all valid m, the
    top-power collapse onto the next generation, the regeneration brackets
    producing the next generation's pivots, the pairwise brackets of the
    generation's pivots, and the full head grids (iterated ad-actions
    against their closed forms) for both families.
    """
    ctx = DpContext(tup, depth)
    rep = VerificationReport(suite="relations")
    N = depth
    for i in range(base_index, N):
        pair = tup.materialize(i)
        for family, kind in _POWER_KIND.items():
            top = _power_bound(family, pair)
            P0 = pivot(ctx, kind, i)
            cur = P0
            for m in range(0, top + 1):
                rhs = pivot_power(ctx, kind, i, m)
                rep.check(
                    "power-ladder",
                    cur == rhs,
                    witness=lambda: f"lhs={cur} rhs={rhs}",
                    kind=kind,
                    i=i,
                    m=m,
                )
                if m == top:
                    break
                cur = p_power(cur)
    for i in range(base_index, N - 1):
        pair = tup.materialize(i)
        PS, PR = tup.powers(i)
        v_i, w_i, u_i = pivots = [pivot(ctx, k, i) for k in "vwu"]
        v_n, w_n, u_n = (pivot(ctx, k, i + 1) for k in "vwu")
        tops = []
        for (family, kind), P in zip(_POWER_KIND.items(), pivots):
            top = _power_bound(family, pair)
            lhs = p_power_iter(P, top)
            tops.append(lhs)
            rep.check(
                "power-top",
                lhs == pivot_power(ctx, kind, i, top),
                witness=lambda: f"lhs={lhs}",
                kind=kind,
                i=i,
            )
        vS, wR, uR = tops
        rep.check("regenerate-next", ad_power(w_i, vS, PR - 1) == v_n, kind="v", i=i)
        rep.check("regenerate-next", ad_power(v_i, wR, PS - 1) == w_n, kind="w", i=i)
        rep.check("regenerate-next", ad_power(v_i, uR, PS - 1) == u_n, kind="u", i=i)
        h_next = bracket(w_i, v_i)
        h_rhs = _head_cell(ctx, "first", i, (0, 0))
        rep.check(
            "bracket-pair", h_next == h_rhs, witness=lambda: f"lhs={h_next} rhs={h_rhs}",
            pair="wv", i=i,
        )
        g_next = bracket(v_i, u_i)
        g_rhs = _head_cell(ctx, "second", i, (0, 0))
        rep.check(
            "bracket-pair", g_next == g_rhs, witness=lambda: f"lhs={g_next} rhs={g_rhs}",
            pair="vu", i=i,
        )
        wu = bracket(w_i, u_i)
        rep.check("bracket-pair", wu.is_zero(), witness=lambda: f"lhs={wu}", pair="wu", i=i)
        # head grid of the first family: iterated ad-actions vs closed forms
        for xi, eta in _head_cells(tup, "first", i + 1):
            lhs = ad_power(v_i, ad_power(w_i, h_next, eta), xi)
            swapped = ad_power(w_i, ad_power(v_i, h_next, xi), eta)
            rhs = _head_cell(ctx, "first", i, (xi, eta))
            rep.check(
                "head-grid-first",
                lhs == rhs,
                witness=lambda: f"lhs={lhs} rhs={rhs}",
                i=i,
                xi=xi,
                eta=eta,
            )
            rep.check(
                "head-grid-order",
                lhs == swapped,
                witness=lambda: f"vw-first={lhs} wv-first={swapped}",
                i=i,
                xi=xi,
                eta=eta,
            )
        # head grid of the second family
        for xi, zeta in _head_cells(tup, "second", i + 1):
            lhs = ad_power(v_i, ad_power(u_i, g_next, zeta), xi)
            rhs = _head_cell(ctx, "second", i, (xi, zeta))
            rep.check(
                "head-grid-second",
                lhs == rhs,
                witness=lambda: f"lhs={lhs} rhs={rhs}",
                i=i,
                xi=xi,
                zeta=zeta,
            )
    return rep


# -- basis and grading verification ---------------------------------------------------


def _group_descriptors(tup: ParameterTuple, cap: int):
    """In-zone descriptors with their multidegrees, grouped per multidegree."""
    by_md: dict[tuple[int, int, int], list[MonomialDescriptor]] = {}
    for d in enumerate_descriptors(tup, cap):
        md = monomial_weight(d, tup).as_tuple()
        by_md.setdefault(md, []).append(d)
    return by_md


def verify_basis_theorem(tup: ParameterTuple, depth: int) -> VerificationReport:
    """Closure dimensions vs descriptor counts, membership, and the split.

    Within the trusted zone of the given depth: per-multidegree and
    per-weight closure dimensions must equal descriptor counts, every
    realized descriptor must lie in the closure and reproduce its predicted
    multidegree, the realized descriptors must be linearly independent, the
    first family together with the v/w-power families must span a
    subalgebra, and the second family with the u-power family an ideal.
    Both family spans are GradedBasis values tested with ``member``;
    independence uses one echelon across all multidegrees.
    """
    if depth < 3:
        raise ValueError("basis verification requires depth >= 3")
    basis = _standard_closure(tup, depth)
    ctx, cap = basis.ctx, basis.cap
    rep = VerificationReport(suite="basis")
    by_md = _group_descriptors(tup, cap)

    closure_dims = basis.dims_by_multidegree()
    pred_dims = {md: len(ds) for md, ds in sorted(by_md.items())}
    for md in sorted(set(closure_dims) | set(pred_dims)):
        got, want = closure_dims.get(md, 0), pred_dims.get(md, 0)
        rep.check(
            "dimension-multidegree",
            got == want,
            witness=lambda: f"closure={got} descriptors={want}",
            multidegree=md,
        )
    wt_closure = basis.dims_by_weight()
    wt_pred = _dims_by_weight(pred_dims)
    for m in range(1, cap + 1):
        got, want = wt_closure.get(m, 0), wt_pred.get(m, 0)
        rep.check(
            "dimension-weight",
            got == want,
            witness=lambda: f"closure={got} descriptors={want}",
            weight=m,
        )

    p = tup.p
    indep = _Echelon(p)
    indep_ok = True
    # the spans of the two families, used only for membership
    first_span = GradedBasis(ctx, cap)
    second_span = GradedBasis(ctx, cap)
    first_vecs: list[tuple[tuple[int, int, int], Derivation]] = []
    second_vecs: list[tuple[tuple[int, int, int], Derivation]] = []
    for md in sorted(by_md):
        for d in by_md[md]:
            D = realize(d, ctx)
            parts = D.graded_components()
            rep.check(
                "realize-membership",
                basis.member(parts),
                witness=lambda: f"descriptor={d} element={D}",
                descriptor=str(d),
            )
            rep.check(
                "realize-multidegree",
                set(parts) == {md},
                witness=lambda: f"descriptor={d} predicted={md} "
                f"actual={' + '.join(map(str, sorted(parts))) or None}",
                descriptor=str(d),
            )
            if indep.insert(D.terms) is None:
                indep_ok = False
                rep.check(
                    "realize-independence", False,
                    witness=lambda: f"dependent descriptor {d}", descriptor=str(d),
                )
            if _COLUMN[d.family] == "first":
                span, vecs = first_span, first_vecs
            else:
                span, vecs = second_span, second_vecs
            span.insert(md, D)
            vecs.append((md, D))
    if indep_ok:
        rep.check("realize-independence", True, count=sum(map(len, by_md.values())))

    for i, (mdi, Di) in enumerate(first_vecs):
        for mdj, Dj in first_vecs[i:]:
            if sum(mdi) + sum(mdj) > cap:
                continue
            res = bracket(Di, Dj)
            rep.check(
                "subalgebra-first",
                first_span.member(res.graded_components()),
                witness=lambda: f"[{Di},{Dj}]={res}",
                weights=(sum(mdi), sum(mdj)),
            )
        if p * sum(mdi) <= cap:
            rep.check(
                "subalgebra-first-power",
                first_span.member(p_power(Di).graded_components()),
                witness=lambda: f"power of {Di}",
                weight=sum(mdi),
            )
    for mdi, Di in first_vecs + second_vecs:
        for mdj, Dj in second_vecs:
            if sum(mdi) + sum(mdj) > cap:
                continue
            res = bracket(Di, Dj)
            rep.check(
                "ideal-second",
                second_span.member(res.graded_components()),
                witness=lambda: f"[{Di},{Dj}]={res}",
                weights=(sum(mdi), sum(mdj)),
            )
    for mdj, Dj in second_vecs:
        if p * sum(mdj) <= cap:
            rep.check(
                "ideal-second-power",
                second_span.member(p_power(Dj).graded_components()),
                witness=lambda: f"power of {Dj}",
                weight=sum(mdj),
            )
    return rep


def verify_grading(tup: ParameterTuple, depth: int) -> VerificationReport:
    """Brackets and p-powers of graded basis vectors land where predicted."""
    if depth < 2:
        raise ValueError("grading verification requires depth >= 2")
    basis = _standard_closure(tup, depth)
    cap = basis.cap
    rep = VerificationReport(suite="grading")
    vecs = basis.vectors
    p = tup.p
    for i, (mdi, Di) in enumerate(vecs):
        for j in range(i, len(vecs)):
            mdj, Dj = vecs[j]
            target = (mdi[0] + mdj[0], mdi[1] + mdj[1], mdi[2] + mdj[2])
            if sum(target) > cap:
                continue
            comps = bracket(Di, Dj).graded_components()
            rep.check(
                "bracket-grading",
                not comps
                or (set(comps) == {target} and basis.member(comps)),
                witness=lambda: f"components={sorted(comps)} expected={target}",
                i=i,
                j=j,
            )
    for i, (mdi, Di) in enumerate(vecs):
        target = (p * mdi[0], p * mdi[1], p * mdi[2])
        if sum(target) > cap:
            continue
        comps = p_power(Di).graded_components()
        rep.check(
            "power-grading",
            not comps
            or (set(comps) == {target} and basis.member(comps)),
            witness=lambda: f"components={sorted(comps)} expected={target}",
            i=i,
        )
    return rep


# -- nil chains -----------------------------------------------------------------------


@dataclass(frozen=True)
class NilResult:
    """Outcome of iterating the p-th power map on one element."""

    status: str  # "nil" | "inconclusive"
    k: int  # nil: least k with e^{[p^k]} = 0; else last safely computed step
    p: int
    chain_weights: tuple[int, ...]  # max weight of e^{[p^j]} for j = 0..
    witness: str = ""

    @property
    def index(self) -> int | None:
        return self.p**self.k if self.status == "nil" else None


def nil_index(e: Derivation, basis: GradedBasis) -> NilResult:
    """Iterate the p-th power map inside the trusted zone.

    Returns nil with the least exponent k such that the p^k-th power
    vanishes, when that happens while every intermediate power stays within
    the trusted cap; otherwise inconclusive.  Never claims non-nil.
    """
    if e.ctx != basis.ctx:
        raise ContextMismatchError("context mismatch")
    parts = e.graded_components()
    if not basis.member(parts):
        raise ValueError("element outside algebra")
    p = e.ctx.p
    cap = basis.cap
    cur = e
    k = 0
    weights = []
    while True:
        if not parts:
            return NilResult("nil", k, p, tuple(weights))
        wt = max(map(sum, parts))
        weights.append(wt)
        if p * wt > cap:
            return NilResult(
                "inconclusive",
                k,
                p,
                tuple(weights),
                witness=f"next power would leave trusted zone ({p * wt} > {cap})",
            )
        cur = p_power(cur)
        parts = cur.graded_components()
        k += 1


def sample_nil_chains(
    tup: ParameterTuple,
    depth: int,
    samples: int,
    seed: int,
    max_terms: int = 5,
) -> list[NilResult]:
    """Seeded random in-zone elements pushed through the p-power chain.

    Elements are F_p-combinations of at most max_terms basis vectors of the
    closure of the standard generators, chosen below a weight budget that
    is itself sampled from cap/p², cap/p, and cap (favoring small budgets so
    that several chain steps stay inside the trusted zone).  The closure is
    the one the verification suites share for this (tuple, depth); there is
    no parameter to pass another basis.  A negative sample count or a
    max_terms below 1 raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    basis = _standard_closure(tup, depth)
    ctx, cap = basis.ctx, basis.cap
    rng = random.Random(seed)
    p = tup.p
    budgets = [max(1, cap // (p * p)), max(1, cap // p), cap]
    weightsq = [6, 3, 1]
    weights = [sum(md) for md, _D in basis.vectors]
    pools = {b: [i for i, w in enumerate(weights) if w <= b] for b in budgets}
    results = []
    for _ in range(samples):
        pool = pools[rng.choices(budgets, weights=weightsq, k=1)[0]]
        k = rng.randint(1, max_terms)
        picks = [rng.choice(pool) for _ in range(min(k, len(pool)))]
        e = Derivation.zero(ctx)
        for i in picks:
            c = rng.randrange(1, p)
            e = e + basis.vectors[i][1].scale(c)
        results.append(nil_index(e, basis))
    return results


# -- self-similarity --------------------------------------------------------------------


def self_similarity_decompose(tup: ParameterTuple, depth: int) -> VerificationReport:
    """Unfold each generator one period and verify the recursion shape.

    For a periodic tuple with period q (constant tuples have period 1) and
    depth >= 2q: each generator equals a finite part supported on
    generations < q plus the full-corner monomial of generations < q times
    the generation-q pivot of the same kind; the generation-q pivots then
    satisfy the whole relation suite with shifted indices.
    """
    if (period := tup.period) is None:
        raise ValueError("self-similarity requires periodic tuple")
    if depth < 2 * period:
        raise ValueError(
            f"self-similarity needs depth >= twice the period ({2 * period})"
        )
    ctx = DpContext(tup, depth)
    rep = VerificationReport(suite="self-similarity")
    for kind in "vwu":
        corner = {
            (g, a): ctx.exponent_bound((g, a)) - 1
            for g in range(period)
            for a in _KIND_TAIL_AXES[kind]
        }
        tail = pivot(ctx, kind, period).lmul(AlgebraElement.monomial(ctx, corner))
        head = pivot(ctx, kind, 0) - tail
        ok = not any(
            var[0] >= period or any(exps[3 * period:])
            for var, _level, _deg, exps in head.terms
        )
        rep.check(
            "head-decomposition",
            ok,
            witness=lambda: f"head={head}",
            kind=kind,
            period=period,
        )
    rep.merge(relation_suite(tup, depth, base_index=period), prefix="shifted-")
    return rep
