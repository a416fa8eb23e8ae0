import cmath

import mpmath as mp
import numpy as np
import pytest

from chebdde._expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Param,
    State,
    evaluate,
    eval_jet3,
    parse_expr,
)
from chebdde._jets import Jet3, jet_cos, jet_exp, jet_log, jet_sin

X = State(0, 0)


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1.0 + abs(b))


def test_polynomial_jet():
    # f = (x+2)(x-1) = x^2 + x - 2 at x = 3
    x = Jet3(3.0, 1.0)
    f = (x + 2.0) * (x - 1.0)
    assert _close(f.c[0], 10.0)
    assert _close(f.c[1], 7.0)
    assert _close(2.0 * f.c[2], 2.0)
    assert _close(6.0 * f.c[3], 0.0)


def test_reciprocal_jet():
    x = Jet3(2.0, 1.0)
    f = 1.0 / x
    assert _close(f.c[1], -0.25)
    assert _close(2.0 * f.c[2], 0.25)
    assert _close(6.0 * f.c[3], -6.0 / 16.0)


def test_fractional_power():
    x = Jet3(4.0, 1.0)
    f = x**2.5
    assert _close(f.c[0], 32.0)
    assert _close(f.c[1], 20.0)
    assert _close(2.0 * f.c[2], 7.5)
    assert _close(6.0 * f.c[3], 0.9375)


def test_negative_int_power():
    x = Jet3(2.0, 1.0)
    assert _close((x**-2).c[1], -2.0 / 8.0)


def test_scalar_base_power():
    x = Jet3(3.0, 1.0)
    f = 2.0**x
    ln2 = cmath.log(2.0)
    assert _close(f.c[0], 8.0)
    assert _close(f.c[1], 8.0 * ln2)
    assert _close(2.0 * f.c[2], 8.0 * ln2**2)
    assert _close(6.0 * f.c[3], 8.0 * ln2**3)


def test_transcendental_jets():
    x = Jet3(0.7, 1.0)
    assert _close(jet_exp(x).c[1], cmath.exp(0.7))
    assert _close(jet_log(x).c[1], 1.0 / 0.7)
    assert _close(jet_sin(x).c[1], cmath.cos(0.7))
    assert _close(6.0 * jet_cos(x).c[3], cmath.sin(0.7))


def test_jet_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        1.0 / Jet3(0.0, 1.0)


def test_jet_log_domain():
    with pytest.raises(ValueError):
        jet_log(Jet3(-1.0, 1.0))


def _random_tree(rng, depth):
    """Trees kept away from log/division singularities under small FD steps."""
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(
            [Num(float(np.round(rng.uniform(0.5, 2.0), 3))), Param("a"), X, State(0, 1)]
        )
    kind = int(rng.integers(0, 8))
    if kind <= 2:
        op = "+-*"[kind]
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 3:
        guard = BinOp("+", Num(2.5), Call("cos", _random_tree(rng, depth - 1)))
        return BinOp("/", _random_tree(rng, depth - 1), guard)
    if kind == 4:
        return BinOp("^", _random_tree(rng, depth - 1), Num(float(rng.integers(2, 4))))
    if kind == 5:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 6:
        guard = BinOp("+", Num(2.2), Call("sin", _random_tree(rng, depth - 1)))
        return Call("log", guard)
    fn = ("exp", "sin", "cos")[int(rng.integers(0, 3))]
    arg = BinOp("*", Num(0.5), _random_tree(rng, depth - 1))
    return Call(fn, arg)


_MP_FUNCS = {"exp": mp.exp, "log": mp.log, "sin": mp.sin, "cos": mp.cos}


def _fd_derivs(tree, base, direction, params):
    """Order 1..3 central differences carried out in 40-digit arithmetic."""
    mp.mp.dps = 40
    h = mp.mpf("1e-4")

    def f(t):
        env = {
            key: mp.mpf(val) + t * mp.mpf(direction.get(key, 0.0))
            for key, val in base.items()
        }
        return evaluate(tree, env, params, _MP_FUNCS)

    f0, f1, fm1, f2, fm2 = f(0), f(h), f(-h), f(2 * h), f(-2 * h)
    d1 = (f1 - fm1) / (2 * h)
    d2 = (f1 - 2 * f0 + fm1) / h**2
    d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
    return complex(d1), complex(d2), complex(d3)


def test_jets_match_finite_differences():
    rng = np.random.default_rng(7)
    params = {"a": 1.3}
    checked = 0
    for _ in range(60):
        tree = _random_tree(rng, 3)
        base = {(0, 0): float(rng.uniform(0.2, 1.5)), (0, 1): float(rng.uniform(0.2, 1.5))}
        direction = {(0, 0): float(rng.uniform(-1, 1)), (0, 1): float(rng.uniform(-1, 1))}
        jet = eval_jet3(tree, base, [direction], params)
        d1, d2, d3 = _fd_derivs(tree, base, direction, params)
        for got, want in ((jet.c[1], d1), (2.0 * jet.c[2], d2), (6.0 * jet.c[3], d3)):
            assert abs(got - want) <= 1e-6 * (1.0 + abs(want))
        checked += 1
    assert checked == 60


def test_bilinear_product_rule():
    # f = x0@0 * x0@1: D^2 f(u, v) = u0 v1 + u1 v0, constant in the base point
    tree = parse_expr("x0@0*x0@1")
    base = {(0, 0): 0.3, (0, 1): -1.1}
    u = {(0, 0): 2.0, (0, 1): -0.5}
    v = {(0, 0): 0.25, (0, 1): 4.0}
    got = eval_jet3(tree, base, [u, v])
    assert _close(got, 2.0 * 4.0 + (-0.5) * 0.25)


def test_trilinear_cubic():
    tree = parse_expr("x0@0^3")
    base = {(0, 0): 0.9}
    u, v, w = ({(0, 0): 1.5}, {(0, 0): -2.0}, {(0, 0): 0.5})
    got = eval_jet3(tree, base, [u, v, w])
    assert _close(got, 6.0 * 1.5 * -2.0 * 0.5)


def test_polarized_forms_symmetric():
    rng = np.random.default_rng(11)
    params = {"a": 0.8}
    for _ in range(20):
        tree = _random_tree(rng, 3)
        base = {(0, 0): float(rng.uniform(0.3, 1.2)), (0, 1): float(rng.uniform(0.3, 1.2))}
        dirs = [
            {(0, 0): float(rng.uniform(-1, 1)), (0, 1): float(rng.uniform(-1, 1))}
            for _ in range(3)
        ]
        u, v, w = dirs
        buv = eval_jet3(tree, base, [u, v], params)
        bvu = eval_jet3(tree, base, [v, u], params)
        assert abs(buv - bvu) <= 1e-12 * (1.0 + abs(buv))
        ref = eval_jet3(tree, base, [u, v, w], params)
        for perm in ((v, u, w), (w, v, u), (v, w, u)):
            other = eval_jet3(tree, base, list(perm), params)
            assert abs(other - ref) <= 1e-11 * (1.0 + abs(ref))


def test_complex_direction():
    # Complex directions feed the Hopf normal form; check against f = exp(x)
    tree = parse_expr("exp(x0@0)")
    base = {(0, 0): 0.4}
    u = {(0, 0): 1.0 + 2.0j}
    v = {(0, 0): 0.5 - 1.0j}
    got = eval_jet3(tree, base, [u, v])
    assert _close(got, cmath.exp(0.4) * (1.0 + 2.0j) * (0.5 - 1.0j))
