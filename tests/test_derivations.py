"""Derivations: generator structure, brackets, p-th powers, and identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import (
    AlgebraElement,
    ContextMismatchError,
    Derivation,
    DpContext,
    DpMonomial,
    ParameterTuple,
    ad_power,
    bracket,
    jacobson_remainder,
    p_power,
    p_power_iter,
    pivot,
)
from conftest import random_zone_element


def make_ctx(p=2, S=1, R=1, depth=3):
    return DpContext(ParameterTuple.constant(p, S, R), depth)


def var_by_name(ctx):
    return {ctx.var_name(v): v for v in ctx.variables()}


# ---------------------------------------------------------------------------
# generator structure


def test_generators_expand_recursively():
    ctx = make_ctx(depth=3)
    names = var_by_name(ctx)
    mono = AlgebraElement.monomial
    x0y0 = mono(ctx, {names["x0"]: 1, names["y0"]: 1})
    x0y0x1y1 = mono(
        ctx, {names["x0"]: 1, names["y0"]: 1, names["x1"]: 1, names["y1"]: 1}
    )
    v0 = (
        Derivation.shift(ctx, names["x0"])
        + Derivation.shift(ctx, names["x1"]).lmul(x0y0)
        + Derivation.shift(ctx, names["x2"]).lmul(x0y0x1y1)
    )
    assert pivot(ctx, "v", 0) == v0
    w0 = (
        Derivation.shift(ctx, names["y0"])
        + Derivation.shift(ctx, names["y1"]).lmul(x0y0)
        + Derivation.shift(ctx, names["y2"]).lmul(x0y0x1y1)
    )
    assert pivot(ctx, "w", 0) == w0
    x0z0 = mono(ctx, {names["x0"]: 1, names["z0"]: 1})
    x0z0x1z1 = mono(
        ctx, {names["x0"]: 1, names["z0"]: 1, names["x1"]: 1, names["z1"]: 1}
    )
    u0 = (
        Derivation.shift(ctx, names["z0"])
        + Derivation.shift(ctx, names["z1"]).lmul(x0z0)
        + Derivation.shift(ctx, names["z2"]).lmul(x0z0x1z1)
    )
    assert pivot(ctx, "u", 0) == u0


def test_generator_multidegrees():
    ctx = make_ctx(depth=3)
    assert pivot(ctx, "v", 0).multidegree() == (1, 0, 0)
    assert pivot(ctx, "w", 0).multidegree() == (0, 1, 0)
    assert pivot(ctx, "u", 0).multidegree() == (0, 0, 1)
    assert pivot(ctx, "v", 1).multidegree() == (2, 1, 0)
    assert pivot(ctx, "u", 1).multidegree() == (1, 0, 2)
    assert pivot(ctx, "v", 1).weight() == 3


def test_generator_depth_limit():
    ctx = make_ctx(depth=2)
    assert pivot(ctx, "v", 2).is_zero()  # the recursion terminates at depth
    with pytest.raises(ValueError, match="beyond truncation"):
        pivot(ctx, "v", 3)
    with pytest.raises(ValueError, match="unknown pivot kind"):
        pivot(ctx, "q", 0)


# ---------------------------------------------------------------------------
# bracket


def random_pair(p, depth, seed):
    rng = random.Random(seed)
    tup = ParameterTuple.constant(p, 1, 1)
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    D = random_zone_element(ctx, tup, cap, rng)
    E = random_zone_element(ctx, tup, cap, rng)
    return ctx, D, E, rng, tup


def test_bracket_is_commutator_of_operators():
    ctx, D, E, rng, tup = random_pair(3, 2, seed=11)
    from cloverlie import dp_basis

    for mono in dp_basis(ctx):
        f = AlgebraElement(ctx, {mono: 1})
        assert bracket(D, E).apply(f) == D.apply(E.apply(f)) - E.apply(D.apply(f))


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_bracket_axioms(rnd, p):
    rng = random.Random(rnd.randint(0, 2**32))
    tup = ParameterTuple.constant(p, 1, 1)
    depth = 4 if p == 2 else 3
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    D, E, F = (random_zone_element(ctx, tup, cap, rng) for _ in range(3))
    assert bracket(D, D).is_zero()
    assert (bracket(D, E) + bracket(E, D)).is_zero()
    jac = bracket(bracket(D, E), F) + bracket(bracket(E, F), D) + bracket(bracket(F, D), E)
    assert jac.is_zero()
    assert bracket(D + E, F) == bracket(D, F) + bracket(E, F)


def test_ad_power_iterates_bracket():
    ctx, D, E, _, _ = random_pair(2, 4, seed=5)
    assert ad_power(D, E, 0) == E
    assert ad_power(D, E, 1) == bracket(D, E)
    assert ad_power(D, E, 3) == bracket(D, bracket(D, bracket(D, E)))


def test_context_mismatch_detected():
    a = pivot(make_ctx(depth=2), "v", 0)
    b = pivot(make_ctx(depth=3), "v", 0)
    with pytest.raises(ContextMismatchError):
        bracket(a, b)


# ---------------------------------------------------------------------------
# p-th power map


def test_power_of_first_generator():
    ctx = make_ctx(depth=3)
    names = var_by_name(ctx)
    y0 = AlgebraElement.monomial(ctx, {names["y0"]: 1})
    assert p_power(pivot(ctx, "v", 0)) == pivot(ctx, "v", 1).lmul(y0)


def test_power_reconstruction_self_check():
    # the triangular solve reproduces the p-fold composition D∘…∘D on the
    # full monomial basis; S = 2 gives x-shifts of level 1 to eliminate
    from cloverlie import dp_basis

    rng = random.Random(23)
    for tup, depth, count in (
        (ParameterTuple.constant(2, 1, 1), 4, 1),
        (ParameterTuple.constant(3, 1, 1), 2, 1),
        (ParameterTuple.constant(2, 2, 1), 2, 8),
        (ParameterTuple.constant(3, 2, 1), 2, 4),
    ):
        ctx = DpContext(tup, depth)
        monos = [AlgebraElement(ctx, {mono: 1}) for mono in dp_basis(ctx)]
        for _ in range(count):
            D = random_zone_element(ctx, tup, tup.trusted_weight_bound(depth), rng, 6)
            P = p_power(D)
            for f in monos:
                composed = f
                for _ in range(tup.p):
                    composed = D.apply(composed)
                assert P.apply(f) == composed


def test_iterated_power_matches_composition():
    ctx, D, _, _, _ = random_pair(2, 4, seed=31)
    assert p_power_iter(D, 0) == D
    assert p_power_iter(D, 1) == p_power(D)
    assert p_power_iter(D, 2) == p_power(p_power(D))


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_power_is_semilinear_in_scalars(rnd, p):
    rng = random.Random(rnd.randint(0, 2**32))
    tup = ParameterTuple.constant(p, 1, 1)
    ctx = DpContext(tup, 3)
    D = random_zone_element(ctx, tup, tup.trusted_weight_bound(3), rng)
    c = rng.randint(1, p - 1)
    assert p_power(D.scale(c)) == p_power(D).scale(pow(c, p, p))


# ---------------------------------------------------------------------------
# restricted-algebra identities


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3]))
def test_ad_of_power_is_power_of_ad(rnd, p):
    rng = random.Random(rnd.randint(0, 2**32))
    depth = 3 if p == 2 else 2
    tup = ParameterTuple.constant(p, 1, 1)
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    D = random_zone_element(ctx, tup, cap, rng)
    E = random_zone_element(ctx, tup, cap, rng)
    assert bracket(p_power(D), E) == ad_power(D, E, p)


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_power_of_sum_closed_forms(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    # p = 2: (D+E)^[2] - D^[2] - E^[2] - [D,E] vanishes identically
    tup2 = ParameterTuple.constant(2, 1, 1)
    ctx2 = DpContext(tup2, 4)
    D = random_zone_element(ctx2, tup2, 9, rng)
    E = random_zone_element(ctx2, tup2, 9, rng)
    assert jacobson_remainder(D, E).is_zero()
    # p = 3: the remainder beyond [D,[D,E]] is the single bracket [E,[E,D]]
    tup3 = ParameterTuple.constant(3, 1, 1)
    ctx3 = DpContext(tup3, 3)
    D3 = random_zone_element(ctx3, tup3, tup3.trusted_weight_bound(3), rng)
    E3 = random_zone_element(ctx3, tup3, tup3.trusted_weight_bound(3), rng)
    assert jacobson_remainder(D3, E3) == bracket(E3, bracket(E3, D3))


# ---------------------------------------------------------------------------
# flat layout: key validation, and the nested arithmetic as a reference


def test_constructor_keeps_valid_terms():
    ctx = make_ctx(p=3, S=2, R=1, depth=2)
    key = ((1, 0), 1, 1, (0, 1, 0, 0, 0, 0))
    assert Derivation(ctx, {key: 5}).terms == {key: 2}
    assert Derivation(ctx, {((0, 0), 0, 0, (0,) * 6): 3}).is_zero()
    assert Derivation.shift(ctx, (1, 0), 1) == Derivation(ctx, {((1, 0), 1, 0, (0,) * 6): 1})


ZERO6 = (0,) * 6


@pytest.mark.parametrize(
    "key",
    [
        ((2, 0), 0, 0, ZERO6),  # generation outside the depth-2 context
        ((0, 3), 0, 0, ZERO6),  # axis outside x, y, z
        ((0, 1), 1, 0, ZERO6),  # y0 has a single shift level
        ((0, 0), -1, 0, ZERO6),  # negative level
        ((0, 0), 0, 9, (9, 0, 0, 0, 0, 0)),  # x0 exponents stay below 9
        ((0, 0), 0, -1, (-1, 0, 0, 0, 0, 0)),  # negative exponent
        ((0, 0), 0, 0, (0,) * 5),  # exponent vector of the wrong length
        ((0, 0), 0, 2, (1, 0, 0, 0, 0, 0)),  # degree differs from the exponent sum
    ],
    ids=["variable", "axis", "level", "negative-level", "exponent",
         "negative-exponent", "length", "degree"],
)
def test_constructor_rejects_bad_key(key):
    ctx = make_ctx(p=3, S=2, R=1, depth=2)
    with pytest.raises(ValueError):
        Derivation(ctx, {key: 1})


def nested(D):
    """The {(var, level): AlgebraElement} coefficient form of a derivation."""
    out = {}
    for (var, level, _deg, exps), c in D.terms.items():
        out.setdefault((var, level), AlgebraElement(D.ctx)).terms[DpMonomial(exps)] = c
    return out


def from_nested(ctx, coeffs):
    return Derivation(ctx, {
        (var, level, sum(m.exps), m.exps): c
        for (var, level), f in coeffs.items()
        for m, c in f.terms.items()
    })


def nested_bracket(F, G):
    """[f·∂_A, g·∂_B] = f·∂_A(g)·∂_B − g·∂_B(f)·∂_A, summed coefficientwise."""
    out = {}

    def acc(key, el):
        out[key] = out[key] + el if key in out else el

    for (va, la), f in F.items():
        for (vb, lb), g in G.items():
            acc((vb, lb), f * g.derive(va, la))
            acc((va, la), -(g * f.derive(vb, lb)))
    return out


def nested_apply(ctx, F, el):
    acc = AlgebraElement.zero(ctx)
    for (var, level), f in F.items():
        acc = acc + f * el.derive(var, level)
    return acc


def nested_p_power(ctx, F):
    p = ctx.p
    out = {}
    for var in ctx.variables():
        recovered = []
        for j in range(ctx.level_bound(var)):
            f = AlgebraElement.monomial(ctx, {var: p**j})
            for _ in range(p):
                f = nested_apply(ctx, F, f)
            for i, fi in enumerate(recovered):
                f = f - fi * AlgebraElement.monomial(ctx, {var: p**j - p**i})
            recovered.append(f)
            out[(var, j)] = f
    return out


def random_terms(ctx, rng, k, shifted=None):
    """k random terms with arbitrary levels and exponents, shifting the
    given variables (all of them by default)."""
    terms = {}
    for _ in range(k):
        var = rng.choice(shifted or ctx.variables())
        exps = tuple(rng.randrange(b) if rng.random() < 0.4 else 0 for b in ctx.bounds)
        key = (var, rng.randrange(ctx.level_bound(var)), sum(exps), exps)
        terms[key] = rng.randrange(1, ctx.p)
    return Derivation(ctx, terms)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_flat_matches_nested_reference(rnd, p):
    rng = random.Random(rnd.randint(0, 2**32))
    tup = ParameterTuple.constant(p, 1, 1)
    depth = {2: 4, 3: 3, 5: 2}[p]
    ctx = DpContext(tup, depth)
    cap = tup.trusted_weight_bound(depth)
    zone = [random_zone_element(ctx, tup, cap, rng) for _ in range(2)]
    raw_ctx = DpContext(ParameterTuple.constant(p, 2, 1), 2)
    raw = [random_terms(raw_ctx, rng, rng.randint(1, 5)) for _ in range(2)]
    for c, (D, E) in ((ctx, zone), (raw_ctx, raw)):
        ND, NE = nested(D), nested(E)
        assert from_nested(c, ND) == D
        assert bracket(D, E) == from_nested(c, nested_bracket(ND, NE))
        assert p_power(D) == from_nested(c, nested_p_power(c, ND))
        f = AlgebraElement(c, {DpMonomial(k[3]): v for k, v in E.terms.items()})
        assert D.apply(f) == nested_apply(c, ND, f)
        assert D.lmul(f) == from_nested(c, {k: f * g for k, g in ND.items()})


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([2, 3, 5]))
def test_p_power_visits_only_shifted_variables(rnd, p):
    # S = 2 gives every x-variable a level-1 shift, so the triangular
    # elimination runs; D shifts only a random subset of the variables, so
    # p_power skips the others, and its support products carry binomials
    rng = random.Random(rnd.randint(0, 2**32))
    ctx = DpContext(ParameterTuple.constant(p, 2, 1), 2)
    shifted = rng.sample(ctx.variables(), rng.randint(1, len(ctx.variables())))
    D = random_terms(ctx, rng, rng.randint(1, 6), shifted)
    assert p_power(D) == from_nested(ctx, nested_p_power(ctx, nested(D)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_power_of_zero_and_bare_shifts(p):
    ctx = DpContext(ParameterTuple.constant(p, 2, 1), 2)
    zero = Derivation.zero(ctx)
    assert p_power(zero) == zero == from_nested(ctx, nested_p_power(ctx, {}))
    for var in ctx.variables():
        for level in range(ctx.level_bound(var)):
            D = Derivation.shift(ctx, var, level)
            # (∂^{p^m})^p = ∂^{p^{m+1}}, which vanishes at the level bound
            top = level + 1 == ctx.level_bound(var)
            expected = zero if top else Derivation.shift(ctx, var, level + 1)
            assert p_power(D) == expected == from_nested(ctx, nested_p_power(ctx, nested(D)))


def test_weight_is_the_largest_term_weight():
    ctx = make_ctx(depth=3)
    names = var_by_name(ctx)
    assert Derivation.zero(ctx).weight() is None
    v0, v1, u1 = pivot(ctx, "v", 0), pivot(ctx, "v", 1), pivot(ctx, "u", 1)
    assert (v0.weight(), v1.weight(), u1.weight()) == (1, 3, 3)
    assert (v0 + v1).weight() == (v1 + v0).weight() == 3
    assert (v0 + u1 - v1).weight() == 3
    # ∂_{x1} weighs the grade sum of x1, 2 + 1; t_{y0}·∂_{x0} weighs 1 − 1
    x1 = Derivation.shift(ctx, names["x1"])
    y0 = AlgebraElement.monomial(ctx, {names["y0"]: 1})
    bent = Derivation.shift(ctx, names["x0"]).lmul(y0)
    assert bent.weight() == 0
    assert (bent + x1).weight() == x1.weight() == 3
    with pytest.raises(ValueError, match="not homogeneous"):
        (bent + x1).multidegree()


# ---------------------------------------------------------------------------
# the vector-space layer both types inherit from LinearCombination

SHARED_LAYER = (
    "_of", "zero", "_check", "__add__", "__neg__", "__sub__", "scale",
    "is_zero", "__bool__", "__eq__", "__hash__", "__str__", "__repr__",
)


def shared_pair():
    ctx = make_ctx(p=3, S=1, R=1, depth=2)
    f = AlgebraElement.monomial(ctx, {(0, 0): 1}, 2)
    return f, Derivation.shift(ctx, (0, 1)).lmul(f)


@pytest.mark.parametrize("cls", [AlgebraElement, Derivation])
def test_linear_layer_defined_once(cls):
    # one implementation of each operation: the subclasses only inherit it
    from cloverlie import LinearCombination

    assert issubclass(cls, LinearCombination)
    assert not set(SHARED_LAYER) & set(vars(cls))


def test_linear_combinations_are_not_hashable():
    for x in shared_pair():
        with pytest.raises(TypeError):
            hash(x)


def test_algebra_element_never_equals_derivation():
    f, D = shared_pair()
    ctx = f.ctx
    assert AlgebraElement.zero(ctx) != Derivation.zero(ctx)
    assert Derivation.zero(ctx) != AlgebraElement.zero(ctx)
    assert f != D and D != f
    assert f == AlgebraElement.monomial(ctx, {(0, 0): 1}, 2)


def test_repr_names_the_type():
    f, D = shared_pair()
    assert repr(f) == "AlgebraElement(2*x0^(1))"
    assert repr(D) == "Derivation(2*x0^(1)·∂_{y0})"
    assert str(D) == D.render()


def test_linear_operations_keep_the_type():
    for x in shared_pair():
        cls = type(x)
        for y in (x + x, x - x, -x, x.scale(2), x.scale(3), cls.zero(x.ctx)):
            assert type(y) is cls
        assert (x - x).is_zero() and not (x - x) and x.scale(3) == cls.zero(x.ctx)
        assert x + x == -x and x.scale(2) == -x


# ---------------------------------------------------------------------------
# every guard fires


def test_negative_indices_are_refused():
    ctx = make_ctx()
    D = pivot(ctx, "v", 0)
    with pytest.raises(ValueError, match="generation must be >= 0"):
        pivot(ctx, "v", -1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        ad_power(D, D, -1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        p_power_iter(D, -1)


def test_zero_has_no_multidegree_and_no_terms():
    ctx = make_ctx()
    assert Derivation.zero(ctx).multidegree() is None
    assert Derivation.zero(ctx).term_count() == 0
    assert pivot(ctx, "v", 0).term_count() == 3  # one shift per generation
