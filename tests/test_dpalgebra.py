"""Truncated divided-power algebra: products, shifts, and dimensions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloverlie import (
    AlgebraElement,
    ContextMismatchError,
    DpContext,
    ParameterTuple,
    binom_mod_p,
    dp_basis,
    dp_basis_dim,
)


def ctx_2114():
    return DpContext(ParameterTuple.constant(2, 1, 1), 2)


def var_by_name(ctx):
    return {ctx.var_name(v): v for v in ctx.variables()}


# ---------------------------------------------------------------------------
# binomial coefficients mod p


def test_binom_mod_p_values():
    assert binom_mod_p(5, 2, 3) == 10 % 3 == 1
    assert binom_mod_p(6, 2, 2) == 15 % 2 == 1
    assert binom_mod_p(4, 2, 2) == 6 % 2 == 0
    assert binom_mod_p(7, 3, 5) == 35 % 5 == 0
    assert binom_mod_p(10, 5, 2) == 252 % 2 == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
def test_binom_mod_p_matches_comb(n, k, p):
    expect = math.comb(n, k) % p if k <= n else 0
    assert binom_mod_p(n, k, p) == expect


# ---------------------------------------------------------------------------
# context shape


def test_dimension_counts():
    tup = ParameterTuple.constant(2, 1, 1)
    assert dp_basis_dim(DpContext(tup, 1)) == 8
    assert dp_basis_dim(DpContext(tup, 2)) == 64
    assert dp_basis_dim(DpContext(ParameterTuple.constant(3, 1, 1), 1)) == 27
    ctx = DpContext(tup, 2)
    assert len(dp_basis(ctx)) == 64
    assert len(set(map(str, dp_basis(ctx)))) == 64  # all distinct


def test_exponent_bounds_follow_rule():
    tup = ParameterTuple.explicit(2, [(2, 3)])
    ctx = DpContext(tup, 1)
    names = var_by_name(ctx)
    assert ctx.exponent_bound(names["x0"]) == 4  # p^S
    assert ctx.exponent_bound(names["y0"]) == 8  # p^R
    assert ctx.exponent_bound(names["z0"]) == 8


def test_level_bounds_read_the_context_table(monkeypatch):
    tup = ParameterTuple.explicit(3, [(2, 1), (1, 3)])
    ctx = DpContext(tup, 2)
    assert ctx.levels == (2, 1, 1, 1, 3, 3)
    assert ctx.bounds == tuple(3**e for e in ctx.levels)

    def no_materialize(n):
        pytest.fail("level_bound must not re-materialize the tuple")

    monkeypatch.setattr(tup, "materialize", no_materialize)
    assert [ctx.level_bound(v) for v in ctx.variables()] == list(ctx.levels)
    with pytest.raises(ValueError, match="outside depth-2 context"):
        ctx.level_bound((2, 0))


# ---------------------------------------------------------------------------
# products


def test_product_truncates_at_bound():
    ctx = ctx_2114()
    x0 = var_by_name(ctx)["x0"]
    a = AlgebraElement.monomial(ctx, {x0: 1})
    assert (a * a).is_zero()  # exponent 2 exceeds the bound p^S - 1 = 1


def test_product_carries_binomial_coefficient():
    # at p = 3 with S = 2 the bound is 9, so small powers multiply freely
    ctx = DpContext(ParameterTuple.explicit(3, [(2, 1)]), 1)
    x0 = var_by_name(ctx)["x0"]
    t1 = AlgebraElement.monomial(ctx, {x0: 1})
    t2 = AlgebraElement.monomial(ctx, {x0: 2})
    t3 = AlgebraElement.monomial(ctx, {x0: 3})
    assert t1 * t1 == t2.scale(2)  # C(2,1) = 2
    assert (t1 * t2).is_zero()  # C(3,1) = 3 = 0 mod 3
    assert t1 * t3 == AlgebraElement.monomial(ctx, {x0: 4}, 4 % 3)  # C(4,1) = 4


def random_element(ctx, rng, terms=3):
    basis = dp_basis(ctx)
    el = AlgebraElement.zero(ctx)
    for _ in range(terms):
        el = el + AlgebraElement(ctx, {rng.choice(basis): rng.randint(1, ctx.p - 1)})
    return el


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ring_axioms(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    p = rng.choice((2, 3))
    ctx = DpContext(ParameterTuple.constant(p, 1, 1), 2)
    a, b, c = (random_element(ctx, rng) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert AlgebraElement.one(ctx) * a == a


# ---------------------------------------------------------------------------
# divided-power shifts


def test_shift_lowers_exponent():
    ctx = DpContext(ParameterTuple.explicit(2, [(3, 1)]), 1)
    x0 = var_by_name(ctx)["x0"]
    a = AlgebraElement.monomial(ctx, {x0: 5})
    assert a.derive(x0) == AlgebraElement.monomial(ctx, {x0: 4})
    # the p^m-fold shift subtracts p^m from the exponent in one step
    assert a.derive(x0, 1) == AlgebraElement.monomial(ctx, {x0: 3})
    assert a.derive(x0, 2) == AlgebraElement.monomial(ctx, {x0: 1})
    assert a.derive(x0, 2).derive(x0, 2).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_shift_is_a_derivation(rnd):
    rng = random.Random(rnd.randint(0, 2**32))
    p = rng.choice((2, 3))
    ctx = DpContext(ParameterTuple.explicit(p, [(2, 1), (1, 1)]), 2)
    var = rng.choice(ctx.variables())
    m = rng.randint(0, ctx.level_bound(var) - 1)
    a, b = random_element(ctx, rng), random_element(ctx, rng)
    left = (a * b).derive(var, m)
    right = a.derive(var, m) * b + a * b.derive(var, m)
    assert left == right


# ---------------------------------------------------------------------------
# independent reference: exponent dicts and math.comb


@st.composite
def dp_operands(draw):
    """A multi-generation context and two elements as {exponent dict: coeff}."""
    p = draw(st.sampled_from([2, 3, 5]))
    pairs = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3))
    ctx = DpContext(ParameterTuple.explicit(p, pairs), len(pairs))
    bound = {(g, a): p ** (S if a == 0 else R) for g, (S, R) in enumerate(pairs) for a in range(3)}
    mono = st.dictionaries(
        st.sampled_from(sorted(bound)), st.integers(0, max(bound.values()) - 1), max_size=4
    ).map(lambda d: {v: e % bound[v] for v, e in d.items() if e % bound[v]})
    element = st.lists(st.tuples(mono, st.integers(1, p - 1)), max_size=4)
    return ctx, bound, draw(element), draw(element)


def from_reference(ctx, terms):
    el = AlgebraElement.zero(ctx)
    for exps, c in terms:
        el = el + AlgebraElement.monomial(ctx, exps, c)
    return el


@settings(max_examples=150, deadline=None)
@given(dp_operands())
def test_product_matches_comb_reference(operands):
    ctx, bound, xs, ys = operands
    p = ctx.p
    expect = []
    for ex, cx in xs:
        for ey, cy in ys:
            exps, coeff = {}, cx * cy
            for v in set(ex) | set(ey):
                a, b = ex.get(v, 0), ey.get(v, 0)
                if a + b >= bound[v]:
                    break
                exps[v] = a + b
                coeff *= math.comb(a + b, a)
            else:
                if coeff % p:
                    expect.append((exps, coeff % p))
    assert from_reference(ctx, xs) * from_reference(ctx, ys) == from_reference(ctx, expect)


@settings(max_examples=150, deadline=None)
@given(dp_operands(), st.data())
def test_shift_matches_reference(operands, data):
    ctx, bound, xs, _ = operands
    var = data.draw(st.sampled_from(sorted(bound)))
    m = data.draw(st.integers(0, ctx.level_bound(var) - 1))
    step = ctx.p**m
    expect = [
        ({**exps, var: exps.get(var, 0) - step}, c)
        for exps, c in xs
        if exps.get(var, 0) >= step
    ]
    assert from_reference(ctx, xs).derive(var, m) == from_reference(ctx, expect)


# ---------------------------------------------------------------------------
# bookkeeping


def test_context_mismatch_detected():
    a = AlgebraElement.one(ctx_2114())
    b = AlgebraElement.one(DpContext(ParameterTuple.constant(2, 1, 1), 3))
    with pytest.raises(ContextMismatchError):
        a + b


def test_render_mentions_exponents():
    ctx = ctx_2114()
    names = var_by_name(ctx)
    a = AlgebraElement.monomial(ctx, {names["x0"]: 1, names["y1"]: 1})
    s = str(a)
    assert "x0" in s and "y1" in s
    assert str(AlgebraElement.zero(ctx)) == "0"


# ---------------------------------------------------------------------------
# every guard fires


def test_monomial_and_shift_guards():
    ctx = ctx_2114()
    x0 = var_by_name(ctx)["x0"]
    with pytest.raises(ValueError, match=r"exponent 2 of x0 outside 0\.\.1"):
        AlgebraElement.monomial(ctx, {x0: 2})
    with pytest.raises(ValueError, match="shift level must be >= 0"):
        AlgebraElement.one(ctx).derive(x0, -1)


def test_dp_basis_refuses_an_oversized_truncation():
    # eight monomials per generation: 8**7 = 2,097,152 exceed the cap, refused unlisted
    ctx = DpContext(ParameterTuple.constant(2, 1, 1), 7)
    with pytest.raises(ValueError, match="dimension 2097152 exceeds cap 2000000"):
        dp_basis(ctx)
