import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdde.errors import ConvergenceError, UnknownSymbolError
from chebdde.model import (
    _solve,
    blowflies,
    equilibrium_solve,
    fluidflow,
    get_model,
    linearize,
    load_model,
    make_model,
    to_text,
)
from _reference import bilinear_form, trilinear_form


def test_make_model_validation():
    with pytest.raises(ValueError):
        make_model(1, (0.5, 1.0), ("x0@0",))
    with pytest.raises(ValueError):
        make_model(1, (0.0, 0.7, 0.3), ("x0@0",))
    with pytest.raises(ValueError):
        make_model(1, (0.0, 1.5), ("x0@0",))
    with pytest.raises(UnknownSymbolError):
        make_model(1, (0.0, 1.0), ("x1@0",))
    with pytest.raises(UnknownSymbolError):
        make_model(1, (0.0, 1.0), ("x0@2",))
    with pytest.raises(UnknownSymbolError):
        make_model(1, (0.0, 1.0), ("a*x0@0",))
    with pytest.raises(ValueError):
        make_model(2, (0.0, 1.0), ("x0@0",))


def test_blowflies_equilibrium():
    model = blowflies(mu=3.0, beta=30.0)
    xbar = equilibrium_solve(model)
    assert abs(xbar[0] - math.log(10.0)) < 1e-12
    # trivial equilibrium reachable from the origin guess
    zero = equilibrium_solve(model, guess=[0.0])
    assert zero[0] == 0.0
    # Newton from a displaced guess lands on the same positive root
    moved = equilibrium_solve(model, guess=[2.0])
    assert abs(moved[0] - math.log(10.0)) < 1e-12


def test_fluidflow_equilibrium():
    model = fluidflow(k=1.5, c=1.5)
    xbar = equilibrium_solve(model)
    assert abs(xbar[0] - 1.5) < 1e-12
    assert abs(xbar[1] - 0.5925925925925926) < 1e-12
    moved = equilibrium_solve(model, guess=[1.4, 0.5])
    assert np.max(np.abs(moved - xbar)) < 1e-10


def test_equilibrium_no_root():
    # x^2 + 1 has no real root; Newton wanders chaotically and must give up
    model = make_model(1, (0.0,), ("x0@0^2 + 1",))
    with pytest.raises(ConvergenceError):
        equilibrium_solve(model, guess=[0.7])


def test_equilibrium_singular_jacobian():
    model = make_model(1, (0.0,), ("x0@0^2 + 1",))
    with pytest.raises(ConvergenceError, match="singular collapsed Jacobian"):
        equilibrium_solve(model, guess=[0.0])


def test_equilibrium_guess_shape():
    with pytest.raises(ValueError):
        equilibrium_solve(fluidflow(), guess=[1.0])


def test_linearize_blowflies():
    mu, beta = 3.0, 30.0
    model = blowflies(mu=mu, beta=beta)
    xbar = equilibrium_solve(model)
    lin = linearize(model, xbar)
    nbar = math.log(beta / mu)
    assert abs(lin.mats[0][0, 0] - (-mu)) < 1e-13
    assert abs(lin.mats[1][0, 0] - mu * (1.0 - nbar)) < 1e-12
    assert len(lin.mats) == 2  # one block per delay


def test_linearize_linear_model_exact():
    model = make_model(
        2,
        (0.0, 1.0),
        ("1.25*x0@0 - 0.5*x1@1", "2*x0@1 + 3*x1@0"),
    )
    lin = linearize(model, np.zeros(2))
    assert lin.mats[0][0, 0] == 1.25
    assert lin.mats[0][1, 1] == 3.0
    assert lin.mats[1][0, 1] == -0.5
    assert lin.mats[1][1, 0] == 2.0
    assert lin.mats[0][0, 1] == 0.0 and lin.mats[1][0, 0] == 0.0


def test_linearize_fluidflow():
    k, c = 1.5, 1.5
    model = fluidflow(k=k, c=c)
    xbar = equilibrium_solve(model)
    lin = linearize(model, xbar)
    # at (c, 2/(k c^2)): df/dw(t) = df/dw(t-1) = -1/c, df/dq(t-1) = -k c^2/2
    c0 = np.array([[-1.0 / c, 0.0], [1.0, 0.0]])
    c1 = np.array([[-1.0 / c, -k * c * c / 2.0], [0.0, 0.0]])
    assert np.max(np.abs(lin.mats[0] - c0)) < 1e-13
    assert np.max(np.abs(lin.mats[1] - c1)) < 1e-13
    assert abs(lin.mats[1][0, 1] - (-1.6875)) < 1e-15


def test_with_params():
    model = blowflies(mu=3.0, beta=30.0)
    bumped = model.with_params(beta=60.0)
    assert bumped.params["beta"] == 60.0
    assert bumped.params["mu"] == 3.0
    assert abs(bumped.equilibrium_hint[0] - math.log(20.0)) < 1e-15
    with pytest.raises(UnknownSymbolError):
        model.with_params(gamma=1.0)


def test_model_file_round_trip(tmp_path):
    doc = {
        "dim": 2,
        "delays": [0.0, 0.25, 1.0],
        "rhs": ["-x0@0 + x1@2", "x0@1 - x1@0^2"],
        "params": {},
        "equilibrium_hint": [0.0, 0.0],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    model = load_model(str(path))
    assert model.dim == 2
    assert model.delays == (0.0, 0.25, 1.0)
    assert [to_text(tree) for tree in model.rhs] == ["-x0@0 + x1@2", "x0@1 - x1@0^2"]
    assert model.equilibrium_hint == (0.0, 0.0)


def test_model_file_unknown_key(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dim": 1, "delays": [0.0], "rhs": ["x0@0"], "tau": 2}))
    with pytest.raises(ValueError):
        load_model(str(path))


def test_get_model_builtins():
    assert get_model("blowflies").dim == 1
    assert get_model("fluidflow").dim == 2


def test_blowflies_higher_derivatives():
    # second and third derivatives of the delayed-birth nonlinearity at the
    # equilibrium, in terms of the linearization coefficients
    mu, beta = 3.0, 30.0
    model = blowflies(mu=mu, beta=beta)
    xbar = equilibrium_solve(model)
    lin = linearize(model, xbar)
    b1 = lin.mats[0][0, 0]
    b2 = lin.mats[1][0, 0]
    e1 = {(0, 1): 1.0}
    d2 = bilinear_form(model, xbar, e1, e1)[0]
    d3 = trilinear_form(model, xbar, e1, e1, e1)[0]
    assert abs(d2 - (b1 - b2)) < 1e-11
    assert abs(d3 - (-2.0 * b1 + b2)) < 1e-11


def test_fluidflow_trilinear_mixed():
    model = fluidflow(k=1.5, c=1.5)
    xbar = equilibrium_solve(model)
    u = {(0, 0): 1.0}  # w(t)
    v = {(0, 1): 1.0}  # w(t-1)
    w = {(1, 1): 1.0}  # q(t-1)
    # d^3/dw(t) dw(t-1) dq(t-1) of 1 - k w(t) w(t-1) q(t-1)/2 is -k/2
    d3 = trilinear_form(model, xbar, u, v, w)
    assert abs(d3[0] - (-0.75)) < 1e-12
    assert abs(d3[1]) < 1e-14


def test_bilinear_complex_directions():
    model = blowflies(mu=3.0, beta=30.0)
    xbar = equilibrium_solve(model)
    p = {(0, 0): 1.0, (0, 1): 0.3 - 0.9j}
    q = {(0, 0): 1.0, (0, 1): 0.3 + 0.9j}
    val = bilinear_form(model, xbar, p, q)[0]
    # only the lag-1 slot is nonlinear, so the form factors through it
    lin = linearize(model, xbar)
    d2 = lin.mats[0][0, 0] - lin.mats[1][0, 0]
    want = d2 * (0.3 - 0.9j) * (0.3 + 0.9j)
    assert abs(val - want) < 1e-11 * (1.0 + abs(want))


def _outcome(fn, *args):
    """The shape and bits of fn's result, or the class and message of what
    it raised."""
    try:
        out = fn(*args)
        return out.shape, out.dtype, out.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


#: magnitudes across many decades, where division and reciprocal differ
scaled_floats = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
                          st.integers(-300, 300))
scalars = st.one_of(st.floats(), scaled_floats)


@settings(max_examples=300)
@given(pivot=scalars, rhs=scalars)
def test_scalar_solve_with_one_rhs_is_lapacks(pivot, rhs):
    # the Newton step's shape: one right-hand side
    for b in (np.array([rhs]), np.array([[rhs]])):
        assert _outcome(_solve, np.array([[pivot]]), b) == _outcome(
            np.linalg.solve, np.array([[pivot]]), b)


@settings(max_examples=300)
@given(pivot=scalars, rhs=st.lists(scalars, min_size=2, max_size=5))
def test_scalar_solve_with_many_rhs_is_lapacks(pivot, rhs):
    # the equilibrium drift's shape: one right-hand side per parameter
    b = np.array([rhs])
    assert _outcome(_solve, np.array([[pivot]]), b) == _outcome(
        np.linalg.solve, np.array([[pivot]]), b)


@pytest.mark.parametrize("rhs, hint", [
    # the residual at (0, 0) is (0, NaN), with the NaN second, where a
    # Python max over the components would skip it
    (("-x0@0", "p*x0@1 - x1@0"), (0.0, 0.0)),
    (("-x0@0", "p*x0@1 - x1@0"), (0.0, math.nan)),
    # a zero residual at a state whose second component is NaN
    (("-x0@0", "-x0@0"), (0.0, math.nan)),
])
def test_equilibrium_newton_never_converges_on_a_nan(rhs, hint):
    model = make_model(2, (0.0, 1.0), rhs, params={"p": math.nan}, equilibrium_hint=hint)
    with pytest.raises(ConvergenceError):
        equilibrium_solve(model)


@pytest.mark.parametrize("pivot", [0.0, -0.0])
def test_scalar_solve_refuses_a_zero_pivot_as_lapack_does(pivot):
    for b in (np.array([1.0]), np.array([[1.0, 2.0]])):
        want = _outcome(np.linalg.solve, np.array([[pivot]]), b)
        assert want[0] is np.linalg.LinAlgError
        assert _outcome(_solve, np.array([[pivot]]), b) == want
