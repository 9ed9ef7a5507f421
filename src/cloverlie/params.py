"""Parameter tuples and weight bookkeeping.

A parameter tuple fixes the prime p and, per generation i, a pair of positive
integers (S_i, R_i).  Generation i contributes three divided-power variables
x_i, y_i, z_i whose exponents are bounded by p^{S_i}, p^{R_i}, p^{R_i}.  The
tuple also determines all weight data: the common total weight of the three
generation-n pivot derivations, their multidegrees in the three generators,
and the weight window inside which a depth-N truncation is faithful.

Tuples are given by a rule: constant, periodic, explicit list, or one of two
analytic rules ("kappa", "qkappa") whose entries are floors of real-valued
expressions.  The finite rules keep their integer pairs in one sequence,
``ParameterTuple.pattern``, repeating with ``period`` 1 (constant) or the
pattern length (periodic); other layers read these, not the rule's kind.
Floors are computed exactly with integer root arithmetic
whenever the expression is a rational power of an integer; otherwise interval
arithmetic with escalating precision is used and an ambiguous floor raises
instead of guessing.  Each interval evaluation runs in a private mpmath
context (:func:`interval_context`), so entries do not depend on mpmath's
global precision and tuples are safe to share across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

__all__ = [
    "TupleRuleError",
    "RoundingAmbiguityError",
    "WeightVector",
    "ParameterTuple",
    "integer_root_floor",
    "materialize",
    "pivot_weight",
    "pivot_multidegree",
    "trusted_weight_bound",
]


class TupleRuleError(ValueError):
    """A tuple rule is invalid or produced an invalid entry."""


class RoundingAmbiguityError(TupleRuleError):
    """A floor could not be certified even at maximal working precision."""


def _require_prime(p: int) -> None:
    """Raise TupleRuleError unless p is a certified prime.

    Miller–Rabin with the thirteen primes through 41 as bases proves
    primality below psi_13 = 3,317,044,064,679,887,385,961,981
    (Sorenson–Webster 2015); psi_13 itself is a composite that passes every
    one of them, so p at or above it is refused.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    psi_13 = 3_317_044_064_679_887_385_961_981
    if p >= psi_13:
        raise TupleRuleError(f"p cannot be certified prime at or above {psi_13}, got {p}")
    if p < 2 or any(p % q == 0 for q in bases if q < p):
        raise TupleRuleError(f"p must be prime, got {p}")
    if p <= bases[-1]:
        return
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise TupleRuleError(f"p must be prime, got {p}")


def integer_root_floor(x: int, k: int) -> int:
    """Largest integer t >= 0 with t**k <= x, for x >= 0, k >= 1."""
    if x < 0 or k < 1:
        raise ValueError("integer_root_floor needs x >= 0 and k >= 1")
    if k == 1 or x == 0:
        return x
    t = 1 << (-(-x.bit_length() // k))
    # from above the root, by AM-GM, each step stays >= the floor and stops there
    while True:
        nt = ((k - 1) * t + x // t ** (k - 1)) // k
        if nt >= t:
            break
        t = nt
    return t


def _floor_rational_power(base: int, expo: Fraction) -> int:
    """floor(base**expo) computed exactly, for base >= 1 and expo >= 0."""
    return integer_root_floor(base**expo.numerator, expo.denominator)


def _entry(x) -> int:
    """A rule entry as an int; TupleRuleError unless x is an integer."""
    try:
        if (value := Fraction(x)).denominator == 1:
            return value.numerator
    except (TypeError, ValueError, OverflowError):
        pass
    raise TupleRuleError(f"tuple rule entries must be integers, got {x!r}")


@dataclass(frozen=True)
class WeightVector:
    """Multidegree of a homogeneous element: degrees in the three generators.

    Components are named after the generator kinds of :func:`pivot`: ``v`` is
    the x-family generator, ``w`` the y-family, ``u`` the z-family.  ``total``
    is the total weight (component sum).
    """

    v: int
    w: int
    u: int

    @property
    def total(self) -> int:
        return self.v + self.w + self.u

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.v, self.w, self.u)

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(self.v + other.v, self.w + other.w, self.u + other.u)

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(self.v - other.v, self.w - other.w, self.u - other.u)

    def __mul__(self, scalar: int) -> "WeightVector":
        return WeightVector(self.v * scalar, self.w * scalar, self.u * scalar)

    __rmul__ = __mul__


_KINDS = ("constant", "periodic", "kappa", "qkappa", "explicit")

# Precision ladder (bits) for interval evaluation of nested exponentials.
_PREC_LADDER = (128, 256, 512, 1024, 4096, 16384, 65536)

# Largest size, in bits, of a power p**S or p**R that an entry may imply.
_MAX_ENTRY_BITS = 1 << 26


def interval_context(prec: int) -> mpmath.MPIntervalContext:
    """A fresh mpmath interval context working at prec bits."""
    ctx = mpmath.MPIntervalContext()
    ctx.prec = prec
    return ctx


def tower(ctx, p: int, kappa: Fraction, t: int, levels: int):
    """exp^(levels)(lam*t) with lam = ln(p^2)/kappa, as an interval of ctx."""
    val = 2 * ctx.log(p) * (t * kappa.denominator) / kappa.numerator
    for _ in range(levels):
        val = ctx.exp(val)
    return val


class ParameterTuple:
    """The prime p together with a generation rule for the pairs (S_i, R_i).

    Instances are immutable apart from an internal, lock-protected cache of
    materialized pairs, so they are safe to share across threads.
    """

    def __init__(self, p: int, kind: str, /, **params):
        _require_prime(p)
        if kind not in _KINDS:
            raise TupleRuleError(f"unknown tuple rule {kind!r}")
        self.p = p
        self.kind = kind
        self._lock = threading.RLock()
        self._pairs: list[tuple[int, int]] = []
        self._powers: list[tuple[int, int]] = []
        self._grades: list[tuple[WeightVector, WeightVector, WeightVector]] = [
            (WeightVector(1, 0, 0), WeightVector(0, 1, 0), WeightVector(0, 0, 1))
        ]
        self._weights: list[int] = [1]
        self._validate(params)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, p: int, S: int, R: int) -> "ParameterTuple":
        return cls(p, "constant", S=S, R=R)

    @classmethod
    def periodic(cls, p: int, pattern) -> "ParameterTuple":
        return cls(p, "periodic", pattern=pattern)

    @classmethod
    def kappa(cls, p: int, kappa) -> "ParameterTuple":
        return cls(p, "kappa", kappa=kappa)

    @classmethod
    def qkappa(cls, p: int, q: int, kappa) -> "ParameterTuple":
        return cls(p, "qkappa", q=q, kappa=kappa)

    @classmethod
    def explicit(cls, p: int, pairs) -> "ParameterTuple":
        return cls(p, "explicit", pairs=pairs)

    def _validate(self, params: dict) -> None:
        """Set ``params``, ``pattern`` and ``period`` from normalized, checked params."""
        k = self.kind
        try:
            if k == "constant":
                prm = {"S": _entry(params["S"]), "R": _entry(params["R"])}
                pattern = (tuple(prm.values()),)
            elif k in ("periodic", "explicit"):
                name = "pattern" if k == "periodic" else "pairs"
                pattern = tuple((_entry(s), _entry(r)) for s, r in params[name])
                prm = {name: pattern}
            else:
                prm = {"q": _entry(params["q"])} if k == "qkappa" else {}
                prm["kappa"] = Fraction(params["kappa"])
                pattern = None
        except KeyError as exc:
            raise TupleRuleError(f"{k} rule needs parameter {exc}") from None
        self.params, self._pattern = prm, pattern
        self._period = 1 if k == "constant" else len(pattern) if k == "periodic" else None
        if pattern is not None:
            if not pattern:
                raise TupleRuleError(f"{k} rule needs at least one (S, R) pair")
            if any(s < 1 or r < 1 for s, r in pattern):
                raise TupleRuleError(
                    "constant rule needs S >= 1 and R >= 1"
                    if k == "constant"
                    else f"{k} rule entries must be >= 1"
                )
        elif k == "kappa" and not (0 < prm["kappa"] < 1):
            raise TupleRuleError("kappa rule needs 0 < kappa < 1")
        elif k == "qkappa" and prm["q"] < 1:
            raise TupleRuleError("qkappa rule needs q >= 1")
        elif k == "qkappa" and prm["kappa"] <= 0:
            raise TupleRuleError("qkappa rule needs kappa > 0")

    @property
    def pattern(self) -> tuple[tuple[int, int], ...] | None:
        """(S, R) pairs of a constant (one pair), periodic or explicit rule, else None."""
        return self._pattern

    @property
    def period(self) -> int | None:
        """1 for a constant rule, the pattern length for a periodic one, else None."""
        return self._period

    # -- rule evaluation ---------------------------------------------------

    def _rule_pair(self, n: int) -> tuple[int, int]:
        """(S_n, R_n) by the rule, uncached (a kappa entry is a closed form in
        n).  Raises TupleRuleError for an entry whose p**S or p**R would exceed
        2**26 bits, rather than let a later power hang."""
        pattern = self._pattern
        if pattern is not None:
            if self._period is None and n >= len(pattern):
                raise TupleRuleError(
                    f"explicit tuple has only {len(pattern)} entries, index {n} requested"
                )
            pair = pattern[n % len(pattern)]
        elif self.kind == "kappa":
            expo = 1 / self.params["kappa"] - 1
            pair = (max(1, _floor_rational_power(n + 1, expo)), 1)
        elif n == 0:
            # qkappa: S_0 = 1 and S_n = floor(exp^(q)(lam*(n+2))) + 1 - sum of
            # earlier entries, where exp(lam*t) = p**(2*t/kappa).
            pair = (1, 1)
        else:
            prior = sum(s for s, _ in self._pairs[:n])
            cap = prior + _MAX_ENTRY_BITS // self.p.bit_length()
            s_n = self._tower_floor(n + 2, cap) + 1 - prior
            if s_n < 1:
                raise TupleRuleError(f"tuple rule degenerate at index {n}")
            pair = (s_n, 1)
        if max(pair) * self.p.bit_length() > _MAX_ENTRY_BITS:
            raise TupleRuleError("tuple entry too large to materialize")
        return pair

    def _tower_floor(self, t: int, cap: int) -> int:
        """floor(exp^(q)(lam*t)) with lam = ln(p^2)/kappa, certified exactly.

        Raises TupleRuleError, before any exponential is taken, when the
        value provably exceeds cap: the entry it implies could not be
        materialized, and evaluating the tower could take unbounded time.
        """
        q, kap = self.params["q"], self.params["kappa"]
        ctx = interval_context(_PREC_LADDER[0])
        bound = ctx.mpf(cap)
        for _ in range(q):
            # log^(q)(cap) from above; a level <= 1 lies below the tower's
            # level there (each exp level exceeds 1), so 0 stands in for it
            bound = ctx.log(bound) if bound.b > 1 else ctx.mpf(0)
        if tower(ctx, self.p, kap, t, 0).a > bound.b:
            raise TupleRuleError("tuple entry too large to materialize")
        if q == 1:
            # exp(lam*t) = p**(2*t/kappa): an exact rational power of p.
            return _floor_rational_power(self.p, Fraction(2 * t, 1) / kap)
        for prec in _PREC_LADDER:
            val = tower(interval_context(prec), self.p, kap, t, q)
            lo, hi = (libmp.to_int(e, libmp.round_floor) for e in val._mpi_)
            if lo == hi:
                return lo
        raise RoundingAmbiguityError(
            f"rounding ambiguous: exp tower at argument {t} straddles an integer"
        )

    # -- materialization ---------------------------------------------------

    def materialize(self, n: int) -> tuple[int, int]:
        """The pair (S_n, R_n); deterministic and cached.

        Raises TupleRuleError for an entry too large to materialize (see
        ``_rule_pair``).
        """
        if n < 0:
            raise ValueError("generation index must be >= 0")
        with self._lock:
            while len(self._pairs) <= n:
                self._pairs.append(self._rule_pair(len(self._pairs)))
            return self._pairs[n]

    def pairs(self, n: int) -> tuple[tuple[int, int], ...]:
        """The first n pairs (S_0, R_0), ..., (S_{n-1}, R_{n-1})."""
        if n > 0:
            self.materialize(n - 1)
        with self._lock:
            return tuple(self._pairs[:n])

    def powers(self, n: int) -> tuple[int, int]:
        """The exponent bounds (p**S_n, p**R_n) of generation n; cached.

        Every entry through n is materialized first, so an entry past the
        size limit is refused before any earlier power is computed.
        """
        if n < 0:
            raise ValueError("generation index must be >= 0")
        with self._lock:
            if len(self._powers) <= n:
                self.materialize(n)
                new = self._pairs[len(self._powers) : n + 1]
                self._powers.extend((self.p**S, self.p**R) for S, R in new)
            return self._powers[n]

    @property
    def materialized_length(self) -> int:
        with self._lock:
            return len(self._pairs)

    # -- weights -----------------------------------------------------------

    def _extend_weights(self, n: int) -> None:
        with self._lock:
            while len(self._weights) <= n:
                i = len(self._weights) - 1
                ps, pr = self.powers(i)
                self._weights.append(self._weights[i] * (ps + pr - 1))

    def pivot_weight(self, n: int) -> int:
        """Common total weight of the three generation-n pivot derivations."""
        if n < 0:
            raise ValueError("generation index must be >= 0")
        self._extend_weights(n)
        return self._weights[n]

    def _extend_grades(self, n: int) -> None:
        with self._lock:
            while len(self._grades) <= n:
                i = len(self._grades) - 1
                ps, pr = self.powers(i)
                gv, gw, gu = self._grades[i]
                self._grades.append((
                    ps * gv + (pr - 1) * gw,
                    (ps - 1) * gv + pr * gw,
                    (ps - 1) * gv + pr * gu,
                ))

    def pivot_multidegree(self, n: int, kind: str) -> WeightVector:
        """Multidegree of the generation-n pivot of the given kind (v, w, u)."""
        if n < 0:
            raise ValueError("generation index must be >= 0")
        if kind not in ("v", "w", "u"):
            raise ValueError(f"kind must be one of v, w, u; got {kind!r}")
        self._extend_grades(n)
        gv, gw, gu = self._grades[n]
        return {"v": gv, "w": gw, "u": gu}[kind]

    def trusted_weight_bound(self, N: int) -> int:
        """Largest weight at which the depth-N truncation is faithful.

        Every monomial of length >= N has strictly larger total weight, so
        graded components up to this bound are represented exactly.
        """
        if N < 2:
            raise ValueError("truncation too shallow: depth must be >= 2")
        return (self.powers(N - 2)[0] - 1) * self.pivot_weight(N - 2)

    # -- equality / rendering / serialization -------------------------------

    def _key(self):
        return (self.p, self.kind, tuple(self.params.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterTuple) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"ParameterTuple(p={self.p}, spec={self.spec!r})"

    @property
    def spec(self) -> str:
        """The rule in the CLI grammar, e.g. ``constant:1,1`` or ``kappa:1/2``."""
        if self._pattern is None:
            return f"{self.kind}:" + ",".join(map(str, self.params.values()))
        return f"{self.kind}:" + ";".join(f"{s},{r}" for s, r in self._pattern)

    @classmethod
    def from_spec(cls, p: int, text: str) -> "ParameterTuple":
        """Parse the CLI grammar: ``constant:S,R`` | ``periodic:S0,R0;S1,R1;...``
        | ``kappa:K`` | ``qkappa:q,K`` | ``explicit:S0,R0;...``."""
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        try:
            if kind == "constant":
                s, r = rest.split(",")
                return cls.constant(p, int(s), int(r))
            if kind in ("periodic", "explicit"):
                pairs = []
                for chunk in rest.split(";"):
                    s, r = chunk.split(",")
                    pairs.append((int(s), int(r)))
                maker = cls.periodic if kind == "periodic" else cls.explicit
                return maker(p, pairs)
            if kind == "kappa":
                return cls.kappa(p, Fraction(rest.strip()))
            if kind == "qkappa":
                q, kap = rest.split(",")
                return cls.qkappa(p, int(q), Fraction(kap.strip()))
        except TupleRuleError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise TupleRuleError(f"cannot parse tuple spec {text!r}: {exc}") from None
        raise TupleRuleError(f"unknown tuple rule {kind!r} in spec {text!r}")

    def to_json(self) -> dict:
        out: dict = {"p": self.p, "kind": self.kind, "length": self.materialized_length}
        out["params"] = {
            name: str(v) if isinstance(v, Fraction)
            else [list(pr) for pr in v] if isinstance(v, tuple)
            else v
            for name, v in self.params.items()
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ParameterTuple":
        p, kind = int(obj["p"]), obj["kind"]
        if kind not in _KINDS:
            raise TupleRuleError(f"unknown tuple rule {kind!r} in JSON form")
        return cls(p, kind, **obj.get("params", {}))


# Module-level operation aliases matching the library's functional surface.

def materialize(tup: ParameterTuple, n: int) -> tuple[int, int]:
    return tup.materialize(n)


def pivot_weight(tup: ParameterTuple, n: int) -> int:
    return tup.pivot_weight(n)


def pivot_multidegree(tup: ParameterTuple, n: int, kind: str) -> WeightVector:
    return tup.pivot_multidegree(n, kind)


def trusted_weight_bound(tup: ParameterTuple, N: int) -> int:
    return tup.trusted_weight_bound(N)
