"""Parameter-rule construction, weights, multidegrees, and serialization."""

import ast
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloverlie
from cloverlie import (
    ParameterTuple,
    RoundingAmbiguityError,
    TupleRuleError,
    WeightVector,
    pivot_multidegree,
    pivot_weight,
    trusted_weight_bound,
)
from cloverlie import params
from cloverlie.cli import main

# ---------------------------------------------------------------------------
# construction and rule grammar


def test_constant_round_trip():
    tup = ParameterTuple.constant(2, 1, 1)
    assert tup.spec == "constant:1,1"
    assert ParameterTuple.from_spec(2, tup.spec) == tup
    assert tup.pairs(5) == ((1, 1),) * 5


def test_periodic_round_trip():
    tup = ParameterTuple.periodic(2, [(1, 1), (5, 1)])
    assert tup.spec == "periodic:1,1;5,1"
    assert ParameterTuple.from_spec(2, tup.spec) == tup
    assert tup.pairs(4) == ((1, 1), (5, 1), (1, 1), (5, 1))


def test_explicit_round_trip():
    tup = ParameterTuple.explicit(3, [(2, 1), (1, 3)])
    assert tup.spec == "explicit:2,1;1,3"
    assert ParameterTuple.from_spec(3, tup.spec) == tup
    with pytest.raises(TupleRuleError):
        tup.materialize(2)  # finite rule exhausted


def test_power_rule_indices():
    # exponent 1/kappa - 1 = 1 at kappa = 1/2, so S_n = n + 1 with R_n = 1
    tup = ParameterTuple.kappa(2, "1/2")
    assert tup.spec == "kappa:1/2"
    assert tup.pairs(5) == ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1))
    assert ParameterTuple.from_spec(2, "kappa:1/2") == tup


def test_tower_rule_indices():
    # q = 1, kappa = 1: lambda = ln 4, S_0 = 1 and
    # S_n = floor(exp(lambda (n + 2))) + 1 - sum of earlier entries
    tup = ParameterTuple.qkappa(2, 1, "1")
    assert tup.spec == "qkappa:1,1"
    assert [tup.materialize(n)[0] for n in range(4)] == [1, 64, 192, 768]
    assert all(tup.materialize(n)[1] == 1 for n in range(4))


def test_entry_size_limit():
    # the largest entry in use (S = 3,145,728 for qkappa:1,1 up to 10**2000)
    # materializes; an entry whose power p**S needs more than 2**26 bits does not
    assert ParameterTuple.explicit(2, [(3_145_728, 1)]).materialize(0) == (3_145_728, 1)
    tup = ParameterTuple.explicit(2, [(1, 1), (10**11, 1)])
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        tup.materialize(1)
    assert tup.materialized_length == 1
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        ParameterTuple.kappa(2, "1/100").materialize(1)
    # a tower entry exactly at the limit (S * bits(p) = 2**26) still materializes
    tup = ParameterTuple.qkappa(2, 1, 2)
    assert tup.materialize(24) == (2**25, 1)
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        tup.materialize(25)


def test_powers_are_the_exponent_bounds():
    tup = ParameterTuple.periodic(3, [(2, 1), (1, 3)])
    assert [tup.powers(n) for n in range(4)] == [(9, 3), (3, 27), (9, 3), (3, 27)]
    with pytest.raises(ValueError):
        tup.powers(-1)
    # the power of an entry past the size limit is refused, never computed
    tup = ParameterTuple.periodic(3, [(2, 1), (10**12, 1)])
    assert tup.powers(0) == (9, 3)
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        tup.powers(1)


def test_refused_power_builds_no_earlier_power():
    # generation 3 of qkappa:1,1 at p=5 is a 22.6M-bit power and generation
    # 4 is past the size limit: the refusal comes before any power is built
    tup = ParameterTuple.qkappa(5, 1, 1)
    with pytest.raises(TupleRuleError, match="too large to materialize"):
        tup.powers(4)
    assert tup._powers == []
    assert tup.powers(0) == (5, 5)


def test_tower_rule_degenerate():
    # a tiny growth target starves the increments and the rule collapses
    tup = ParameterTuple.qkappa(2, 1, "10")
    with pytest.raises(TupleRuleError, match="degenerate"):
        tup.materialize(2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParameterTuple.constant(4, 1, 1),  # p not prime
        lambda: ParameterTuple.constant(2, 0, 1),  # S < 1
        lambda: ParameterTuple.constant(2, 1, 0),  # R < 1
        lambda: ParameterTuple.kappa(2, "1"),  # power exponent needs 0 < k < 1
        lambda: ParameterTuple.kappa(2, "0"),
        lambda: ParameterTuple.qkappa(2, 0, "1"),  # tower height >= 1
        lambda: ParameterTuple.explicit(2, []),  # empty rule
        lambda: ParameterTuple.from_spec(2, "nonsense:1,1"),
        lambda: ParameterTuple.from_spec(2, "constant:1"),
    ],
)
def test_invalid_rules_rejected(build):
    with pytest.raises((TupleRuleError, ValueError)):
        build()


# psi_12 = 399,165,290,221 * 798,330,580,441 passes Miller-Rabin with the
# twelve prime bases through 37; psi_13 passes the thirteen through 41
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_strong_pseudoprimes_are_refused():
    assert PSI_12 == 399_165_290_221 * 798_330_580_441
    with pytest.raises(TupleRuleError, match=f"p must be prime, got {PSI_12}"):
        ParameterTuple.constant(PSI_12, 1, 1)
    with pytest.raises(TupleRuleError, match="cannot be certified prime"):
        ParameterTuple.constant(PSI_13, 1, 1)
    assert ParameterTuple.constant(2**61 - 1, 1, 1).p == 2**61 - 1


def test_json_round_trip():
    for tup in [
        ParameterTuple.constant(2, 1, 1),
        ParameterTuple.periodic(3, [(1, 2), (2, 1)]),
        ParameterTuple.kappa(2, "2/3"),
        ParameterTuple.qkappa(2, 1, "1"),
        ParameterTuple.explicit(5, [(1, 1), (2, 2)]),
    ]:
        assert ParameterTuple.from_json(tup.to_json()) == tup


def test_rule_entries_normalized():
    # an integral entry given as text or float is the same rule: one spec,
    # equal and with one hash, so caches keyed by the tuple hold it once
    a, b = ParameterTuple.constant(2, "1", 1), ParameterTuple.constant(2, 1, 1)
    assert a == b and hash(a) == hash(b) and a.spec == b.spec == "constant:1,1"
    assert ParameterTuple.periodic(3, [("2", 1.0)]) == ParameterTuple.periodic(3, [(2, 1)])
    assert ParameterTuple.qkappa(2, "1", "1") == ParameterTuple.qkappa(2, 1, 1)
    assert ParameterTuple.from_json(a.to_json()) == b
    # the same pairs under another rule differ in spec, so in identity too
    const, per = ParameterTuple.constant(2, 1, 1), ParameterTuple.periodic(2, [(1, 1)])
    assert const != per and const.spec != per.spec


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParameterTuple.constant(2, 1.5, 1),
        lambda: ParameterTuple.constant(2, 1, "x"),
        lambda: ParameterTuple.periodic(2, [(1, 1), (1.5, 1)]),
        lambda: ParameterTuple.explicit(2, [(1, "1.5")]),
        lambda: ParameterTuple.qkappa(2, 1.5, "1"),
        lambda: ParameterTuple.from_json({"p": 2, "kind": "constant", "params": {"S": 2.5, "R": 1}}),
    ],
)
def test_non_integral_entries_refused(build):
    with pytest.raises(TupleRuleError, match="must be integers"):
        build()


@pytest.mark.parametrize(
    "obj",
    [
        {"p": 2, "kind": "kappa", "params": {}},
        {"p": 2, "kind": "qkappa", "params": {"kappa": "1"}},
        {"p": 2, "kind": "constant", "params": {"S": 1}},
        {"p": 2, "kind": "periodic"},
    ],
)
def test_missing_params_refused(obj):
    with pytest.raises(TupleRuleError, match="needs parameter"):
        ParameterTuple.from_json(obj)


def test_json_params_named_like_the_rule_fields_ignored():
    # a ``p`` or ``kind`` key inside ``params`` is not a rule parameter; it
    # neither collides with the tuple's own prime and rule nor overrides them
    obj = {"p": 2, "kind": "constant", "params": {"S": 1, "R": 1, "p": 3, "kind": "kappa"}}
    assert ParameterTuple.from_json(obj) == ParameterTuple.constant(2, 1, 1)


def test_pattern_and_period():
    cases = [
        (ParameterTuple.constant(2, 2, 1), ((2, 1),), 1),
        (ParameterTuple.periodic(2, [[1, 1], [5, 1]]), ((1, 1), (5, 1)), 2),
        (ParameterTuple.explicit(3, [(2, 1), (1, 3)]), ((2, 1), (1, 3)), None),
        (ParameterTuple.kappa(2, "1/2"), None, None),
        (ParameterTuple.qkappa(2, 1, 1), None, None),
    ]
    for tup, pattern, period in cases:
        assert (tup.pattern, tup.period) == (pattern, period)
        with pytest.raises(AttributeError):
            tup.period = 3


def test_rule_facts_read_from_the_tuple():
    # outside params.py no code asks which finite rule a tuple follows or
    # digs its pairs out of ``params``; it reads ``pattern`` and ``period``
    finite, pair_keys = {"constant", "periodic", "explicit"}, {"pattern", "pairs", "S", "R"}
    found = []
    for path in sorted(pathlib.Path(cloverlie.__file__).parent.glob("*.py")):
        if path.name == "params.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in (node.left, *node.comparators)
            ):
                consts = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
                if consts & finite:
                    found.append((path.name, node.lineno))
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "params" and isinstance(node.slice, ast.Constant)
                    and node.slice.value in pair_keys):
                found.append((path.name, node.lineno))
    assert found == []


# ---------------------------------------------------------------------------
# pivot weights: w(n+1) = (p^S_n + p^R_n - 1) w(n), w(0) = 1


def test_pivot_weights_small():
    tup = ParameterTuple.constant(2, 1, 1)
    assert [tup.pivot_weight(n) for n in range(5)] == [1, 3, 9, 27, 81]
    tup3 = ParameterTuple.constant(3, 1, 1)
    assert [tup3.pivot_weight(n) for n in range(3)] == [1, 5, 25]


def test_pivot_weight_power_rule():
    tup = ParameterTuple.kappa(2, "1/2")
    # factors 3, 5, 9, 17 for generations 0..3
    assert tup.pivot_weight(4) == 3 * 5 * 9 * 17 == 2295


def test_pivot_weight_tower_rule():
    tup = ParameterTuple.qkappa(2, 1, "1")
    assert tup.pivot_weight(3) == 3 * (2**64 + 1) * (2**192 + 1)


def test_pivot_multidegrees_first_generation():
    tup = ParameterTuple.constant(2, 1, 1)
    assert pivot_multidegree(tup, 1, "v").as_tuple() == (2, 1, 0)
    assert pivot_multidegree(tup, 1, "w").as_tuple() == (1, 2, 0)
    assert pivot_multidegree(tup, 1, "u").as_tuple() == (1, 0, 2)


def test_trusted_weight_bound():
    tup = ParameterTuple.constant(2, 1, 1)
    assert trusted_weight_bound(tup, 4) == 9
    assert trusted_weight_bound(tup, 5) == 27
    assert trusted_weight_bound(ParameterTuple.constant(3, 1, 1), 3) == 10
    assert trusted_weight_bound(ParameterTuple.periodic(2, [(1, 1), (5, 1)]), 3) == 93


# ---------------------------------------------------------------------------
# properties over random finite rules


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_weight_and_grade_recurrences(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    p = rng.choice((2, 3, 5))
    pairs = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(5)]
    tup = ParameterTuple.explicit(p, pairs)

    gv, gw, gu = WeightVector(1, 0, 0), WeightVector(0, 1, 0), WeightVector(0, 0, 1)
    weight = 1
    for n in range(5):
        assert pivot_weight(tup, n) == weight
        for kind, g in (("v", gv), ("w", gw), ("u", gu)):
            assert pivot_multidegree(tup, n, kind) == g
            assert g.total == weight
        assert gv.u == 0  # x/y-type degrees never leak into the z-slot
        assert gw.u == 0
        S, R = pairs[n]
        a, b = p**S, p**R
        gv, gw, gu = (
            gv * a + gw * (b - 1),
            gv * (a - 1) + gw * b,
            gv * (a - 1) + gu * b,
        )
        weight *= a + b - 1
    # the z-degree of the third pivot is the product of the p^R factors
    assert pivot_multidegree(tup, 5, "u").u == p ** sum(r for _, r in pairs)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_trusted_bound_matches_product_form(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    p = rng.choice((2, 3))
    pairs = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(6)]
    tup = ParameterTuple.explicit(p, pairs)
    for N in range(2, 7):
        S = pairs[N - 2][0]
        assert trusted_weight_bound(tup, N) == (p**S - 1) * pivot_weight(tup, N - 2)


# ---------------------------------------------------------------------------
# certified arithmetic


def test_package_uses_only_private_mpmath_contexts():
    # mpmath's global mp/iv contexts, and the functions that read them, make
    # results depend on the caller's settings and on other threads
    allowed = {"MPContext", "MPIntervalContext", "libmp"}
    used = set()
    for path in sorted(pathlib.Path(cloverlie.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "mpmath"):
                used.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                top, _, sub = node.module.partition(".")
                if top == "mpmath":  # from mpmath[.sub] import name
                    used.update((path.name, sub or alias.name) for alias in node.names)
    assert used
    assert sorted(u for u in used if u[1] not in allowed) == []


# ---------------------------------------------------------------------------
# integer roots, and every guard fires


@st.composite
def _roots(draw):
    """(x, k): any x, or one next to a k-th power, where a wrong floor shows."""
    k = draw(st.integers(1, 12))
    x = draw(st.one_of(
        st.integers(0, 2**400),
        st.builds(lambda r, d: max(0, r**k + d), st.integers(0, 2**40), st.integers(-1, 1)),
    ))
    return x, k


@settings(max_examples=300, deadline=None)
@given(_roots())
def test_integer_root_floor_is_the_floor(xk):
    x, k = xk
    t = params.integer_root_floor(x, k)
    assert t >= 0 and t**k <= x < (t + 1) ** k


@pytest.mark.parametrize("x, k", [(-1, 2), (8, 0), (8, -3)])
def test_integer_root_floor_refuses_bad_input(x, k):
    with pytest.raises(ValueError, match="needs x >= 0 and k >= 1"):
        params.integer_root_floor(x, k)


def test_rule_guards():
    with pytest.raises(TupleRuleError, match="unknown tuple rule 'bogus'"):
        ParameterTuple(2, "bogus")
    with pytest.raises(TupleRuleError, match="unknown tuple rule 'bogus' in JSON form"):
        ParameterTuple.from_json({"p": 2, "kind": "bogus"})
    for kappa in ("0", "-1/2"):
        with pytest.raises(TupleRuleError, match="qkappa rule needs kappa > 0"):
            ParameterTuple.qkappa(2, 1, kappa)
    tup = ParameterTuple.constant(2, 1, 1)
    for call in (tup.materialize, tup.powers, tup.pivot_weight,
                 lambda n: tup.pivot_multidegree(n, "v")):
        with pytest.raises(ValueError, match="generation index must be >= 0"):
            call(-1)
    with pytest.raises(ValueError, match="kind must be one of v, w, u; got 'x'"):
        tup.pivot_multidegree(0, "x")


@pytest.mark.parametrize("spec", ["qkappa:1,0", "qkappa:1,-1"])
def test_cli_refuses_a_nonpositive_tower_kappa(capsys, spec):
    code = main(["growth", "--p", "2", "--tuple", spec, "--max-weight", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: qkappa rule needs kappa > 0\n"


def test_rounding_ambiguity_is_refused(monkeypatch):
    # S_1 = floor(exp(exp(3 ln 4 / 4))) = floor(exp(2^1.5)) = floor(16.9...), but
    # at 8 bits the enclosure of the tower straddles integers
    tup = ParameterTuple.qkappa(2, 2, 4)
    assert tup.materialize(1) == (16, 1)
    monkeypatch.setattr(params, "_PREC_LADDER", (8,))
    with pytest.raises(RoundingAmbiguityError, match="straddles an integer"):
        ParameterTuple.qkappa(2, 2, 4).materialize(1)


def test_repr_and_functional_aliases():
    tup = ParameterTuple.kappa(3, "1/2")
    assert repr(tup) == "ParameterTuple(p=3, spec='kappa:1/2')"
    assert cloverlie.materialize(tup, 2) == tup.materialize(2) == (3, 1)


def test_powers_extend_in_linear_time():
    # each generation's power is appended alone: 40,000 generations in well
    # under a second, where copying every earlier pair per step took seconds
    tup = ParameterTuple.constant(2, 1, 1)
    start = time.monotonic()
    assert tup.pivot_weight(40_000) == 3**40_000
    assert time.monotonic() - start < 5
