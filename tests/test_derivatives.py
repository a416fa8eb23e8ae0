"""Compiled symbolic derivatives of the model rhs (model.derivs) and the
normal-form forms built on them, checked against 40-digit central
differences, the jets and closed forms."""

import math
from itertools import combinations_with_replacement, permutations, product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdde._expr import BinOp, Call, Neg, Num, Param, State, diff, evaluate, parse_expr
from chebdde.errors import EvalDomainError
from chebdde.model import (
    blowflies,
    equilibrium_solve,
    eval_jet3,
    fluidflow,
    linearize,
    make_model,
)
from _reference import bilinear_form, trilinear_form
from test_simulate import three_delay_model

# two components, two delays: slot i = lag * 2 + comp
SLOTS = [(comp, lag) for lag in range(2) for comp in range(2)]
NAMES = ("a", "b")

_LEAVES = st.one_of(
    st.floats(0.5, 2.0).map(lambda v: Num(round(v, 3))),
    st.sampled_from([Param(name) for name in NAMES]),
    st.sampled_from([State(comp, lag) for comp, lag in SLOTS]),
)


def _guarded_trees(depth):
    """Random trees with the domain guards of test_jets._random_tree: division
    by 2.5 + cos(.), log of 2.2 + sin(.), integer powers 2 and 3, and the
    argument of exp, sin and cos halved; a power with a variable exponent
    takes the base 2.2 + sin(.) and a halved exponent."""
    if depth == 0:
        return _LEAVES
    sub = _guarded_trees(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(lambda a, b: BinOp("/", a, BinOp("+", Num(2.5), Call("cos", b))), sub, sub),
        st.builds(lambda a, m: BinOp("^", a, Num(float(m))), sub, st.integers(2, 3)),
        st.builds(
            lambda a, b: BinOp("^", BinOp("+", Num(2.2), Call("sin", a)), BinOp("*", Num(0.5), b)),
            sub,
            sub,
        ),
        st.builds(Neg, sub),
        st.builds(lambda a: Call("log", BinOp("+", Num(2.2), Call("sin", a))), sub),
        st.builds(
            lambda fn, a: Call(fn, BinOp("*", Num(0.5), a)),
            st.sampled_from(["exp", "sin", "cos"]),
            sub,
        ),
    )


_MP_FUNCS = {"exp": mp.exp, "log": mp.log, "sin": mp.sin, "cos": mp.cos}


def _mp_rhs(trees, x, params):
    """The rhs at the constant state x, perturbed by (slot or name) -> step."""

    def f(steps):
        env = {key: mp.mpf(x[key[0]]) + steps.get(key, 0) for key in SLOTS}
        pars = {name: mp.mpf(params[name]) + steps.get(name, 0) for name in NAMES}
        return [evaluate(tree, env, pars, _MP_FUNCS) for tree in trees]

    return f


def _central1(f, u, h):
    plus, minus = f({u: h}), f({u: -h})
    return [(p - m) / (2 * h) for p, m in zip(plus, minus)]


def _central2(f, u, v, h):
    def at(su, sv):
        steps = {u: su * h}
        steps[v] = steps.get(v, 0) + sv * h
        return f(steps)

    pp, pm, mp_, mm = at(1, 1), at(1, -1), at(-1, 1), at(-1, -1)
    return [(a - b - c + d) / (4 * h * h) for a, b, c, d in zip(pp, pm, mp_, mm)]


def _central3(f, u, v, w, h):
    """sum of s_u s_v s_w f(x + h (s_u u + s_v v + s_w w)) / 8h^3 over the
    eight sign triples; exact on cubics."""
    total = None
    for signs in product((1, -1), repeat=3):
        steps = {}
        for key, sign in zip((u, v, w), signs):
            steps[key] = steps.get(key, 0) + sign * h
        weight = signs[0] * signs[1] * signs[2]
        vals = [weight * val for val in f(steps)]
        total = vals if total is None else [a + b for a, b in zip(total, vals)]
    return [t / (8 * h**3) for t in total]


def _close(got, want, tol=1e-9):
    return abs(got - float(want)) <= tol * (1.0 + abs(float(want)))


@settings(max_examples=60)
@given(
    trees=st.tuples(_guarded_trees(3), _guarded_trees(3)),
    x=st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5)),
    par=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
def test_compiled_derivatives_match_mpmath(trees, x, par):
    _check_against_mpmath(trees, x, par)


def test_variable_powers_match_mpmath():
    # the leaf in both base and exponent: d(a^b) = a^b (b' log a + b a'/a)
    trees = (
        parse_expr("(2.2 + sin(x0@0))^(0.5*x0@0*x1@1)"),
        parse_expr("x1@0^a + x0@1^(b*x1@0*x0@1)"),
    )
    _check_against_mpmath(trees, (0.7, 1.3), (1.1, 0.6))


def _check_against_mpmath(trees, x, par):
    params = dict(zip(NAMES, par))
    model = make_model(2, (0.0, 1.0), trees, params)
    f_val, grad = model.derivs.first(x, params)
    f_alpha, hess, mixed = model.derivs.second(x, params)
    mp.mp.dps = 40
    h = mp.mpf("1e-12")
    f = _mp_rhs(trees, x, params)
    for r, want in enumerate(f({})):
        assert _close(f_val[r], want)
    for i, u in enumerate(SLOTS):
        comp, lag = u
        for r, want in enumerate(_central1(f, u, h)):
            assert _close(grad[r, lag, comp], want)
        for j, v in enumerate(SLOTS[i:], start=i):
            for r, want in enumerate(_central2(f, u, v, h)):
                assert _close(hess[r, i, j], want)
                assert _close(hess[r, j, i], want)
        for k, name in enumerate(NAMES):
            for r, want in enumerate(_central2(f, u, name, h)):
                assert _close(mixed[r, i, k], want)
    for k, name in enumerate(NAMES):
        for r, want in enumerate(_central1(f, name, h)):
            assert _close(f_alpha[r, k], want)
    # a wider step for the third difference: it divides by h^3
    third = model.derivs.third(x, params)
    for ijk in combinations_with_replacement(range(len(SLOTS)), 3):
        wants = _central3(f, *(SLOTS[i] for i in ijk), mp.mpf("1e-8"))
        for r, want in enumerate(wants):
            for perm in permutations(ijk):
                assert _close(third[(r, *perm)], want)


@pytest.mark.parametrize(
    "model",
    [blowflies(mu=7.0, beta=105.0), fluidflow(k=1.5, c=1.5), three_delay_model()],
)
def test_compiled_hessian_equals_jet_bilinear_form(model):
    # the forms contract the compiled derivatives; eval_jet3 polarizes
    # Taylor-jet walks of the tree, a reference independent of them, for the
    # second-order form and the third-order one alike
    xbar = equilibrium_solve(model)
    keys = [(comp, lag) for lag in range(len(model.delays)) for comp in range(model.dim)]
    base = {key: complex(xbar[key[0]]) for key in keys}
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v, w = ({key: complex(*rng.normal(size=2)) for key in keys} for _ in range(3))
        for got, dirs in ((bilinear_form(model, xbar, u, v), [u, v]),
                          (trilinear_form(model, xbar, u, v, w), [u, v, w])):
            want = np.array([eval_jet3(tree, base, dirs, model.params)
                             for tree in model.rhs])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_blowflies_param_jacobians_closed_form():
    # C_0 = -mu, C_1 = mu (1 - ln(beta/mu)) along the branch xbar = ln(beta/mu)
    mu, beta = 7.0, 105.0
    model = blowflies(mu=mu, beta=beta)
    lin = linearize(model, equilibrium_solve(model))
    dmu, dbeta = lin.param_derivs["mu"], lin.param_derivs["beta"]
    assert abs(dmu[0][0, 0] - (-1.0)) < 1e-14
    assert abs(dmu[1][0, 0] - (2.0 - math.log(beta / mu))) < 1e-13
    assert abs(dbeta[0][0, 0]) < 1e-14
    assert abs(dbeta[1][0, 0] - (-mu / beta)) < 1e-14


def test_fluidflow_param_jacobians_match_branch_differences():
    model = fluidflow(k=1.5, c=1.3)
    lin = linearize(model, equilibrium_solve(model))
    h = 1e-6
    for name in ("k", "c"):
        value = model.params[name]
        side = []
        for sign in (1.0, -1.0):
            moved = model.with_params(**{name: value + sign * h})
            side.append(linearize(moved, equilibrium_solve(moved)).mats)
        for lag in range(2):
            want = (side[0][lag] - side[1][lag]) / (2.0 * h)
            assert np.max(np.abs(lin.param_derivs[name][lag] - want)) < 1e-8


def test_fold_leaves_param_derivs_out():
    # x' = a - x^2 at a = 0: the collapsed Jacobian -2x vanishes at x = 0
    model = make_model(1, (0.0, 1.0), ("a - x0@1^2",), {"a": 0.0})
    lin = linearize(model, np.zeros(1))
    assert lin.param_derivs is None
    assert lin.mats[1][0, 0] == 0.0


def test_with_params_shares_compiled_derivatives():
    model = blowflies(mu=3.0, beta=30.0)
    bumped = model.with_params(beta=60.0)
    assert bumped.derivs is model.derivs
    # parameters are arguments of the compiled code, not baked in
    fresh = blowflies(mu=3.0, beta=60.0)
    xbar = equilibrium_solve(fresh)
    for got, want in zip(linearize(bumped, xbar).mats, linearize(fresh, xbar).mats):
        assert np.array_equal(got, want)


def test_compiled_overflow_is_a_domain_error():
    model = make_model(1, (0.0, 1.0), ("1 - exp(x0@1)",))
    with pytest.raises(EvalDomainError) as err:
        equilibrium_solve(model, guess=[1000.0])
    assert "1 - exp(x0@1)" in str(err.value)
    with pytest.raises(EvalDomainError):
        linearize(model, [1000.0])
    with pytest.raises(EvalDomainError) as err:
        model.derivs.third([1000.0], {})
    assert "1 - exp(x0@1)" in str(err.value)


def test_diff_folds_constants():
    x, y = State(0, 0), State(0, 1)
    assert diff(parse_expr("3*x0@0 + x0@1"), x) == Num(3.0)
    assert diff(parse_expr("3*x0@0 + x0@1"), y) == Num(1.0)
    assert diff(parse_expr("a*x0@1"), x) == Num(0.0)
    assert diff(parse_expr("a*x0@1"), Param("a")) == y
    assert diff(parse_expr("x0@0^2"), x) == BinOp("*", Num(2.0), x)


@pytest.mark.parametrize("base", [0.0, -1.5])
def test_integer_power_of_nonpositive_base(base):
    # the jets take integer powers by repeated multiplication; so does b a^(b-1)
    model = make_model(1, (0.0,), ("x0@0^3 - 2*x0@0^2",))
    _, grad = model.derivs.first([base], {})
    _, hess, _ = model.derivs.second([base], {})
    assert grad[0, 0, 0] == 3.0 * base**2 - 4.0 * base
    assert hess[0, 0, 0] == 6.0 * base - 4.0
