import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from chebdde import discretize
from chebdde.discretize import (
    _factor,
    _jet,
    _smin,
    assemble_An,
    charfn_det,
    eigenvalues,
    make_system,
    replicate,
    rhs,
)
from chebdde.errors import (
    ConditioningError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from chebdde.model import (
    blowflies,
    equilibrium_solve,
    fluidflow,
    linearize,
    make_model,
    param_jacobians,
)
from _reference import (
    assemble_An_kron,
    charfn_dalpha,
    charfn_dlambda,
    charfn_eval,
    combine_jet,
    eigvec_left,
    eigvec_right,
    interpolate,
    param_jacobians_by_name,
    projection_apply,
    resolvent_apply,
)

MU, BETA = 3.0, 30.0
NBAR = math.log(BETA / MU)
B1 = -MU
B2 = MU * (1.0 - NBAR)


def scalar_linear(b1, b2):
    """x' = b1 x(t) + b2 x(t-1): the two-coefficient scalar test family."""
    return make_model(1, (0.0, 1.0), ("b1*x0@0 + b2*x0@1",), {"b1": b1, "b2": b2})


def delta2_exact(lam):
    """Degree-2 characteristic function of the scalar family, closed form."""
    return lam - B1 - B2 * (4.0 - lam) / (lam * lam + 3.0 * lam + 4.0)


def test_assemble_blowflies_n2():
    ps = make_system(blowflies(MU, BETA), 2)
    want = np.array([[B1, 0.0, B2], [1.0, 0.0, -1.0], [-1.0, 4.0, -3.0]])
    assert np.max(np.abs(assemble_An(ps) - want)) < 1e-14


def test_lower_blocks_universal():
    a = assemble_An(make_system(blowflies(MU, BETA), 5))
    b = assemble_An(make_system(scalar_linear(0.7, -2.0), 5))
    assert np.array_equal(a[1:], b[1:])


def test_delay_at_node_hits_single_column():
    # n=2 nodes are 0, -1/2, -1; a delay of 1/2 lands exactly on node 1
    model = make_model(1, (0.0, 0.5), ("-x0@0 + 0.5*x0@1",))
    ps = make_system(model, 2, equilibrium=[0.0])
    a = assemble_An(ps)
    assert np.allclose(a[0], [-1.0, 0.5, 0.0], atol=1e-15)


def test_rhs_zero_at_equilibrium():
    for model in (blowflies(MU, BETA), fluidflow()):
        ps = make_system(model, 7)
        state = replicate(ps.equilibrium, 7)
        assert np.max(np.abs(rhs(ps, state))) < 1e-13


def test_rhs_constant_state_reduces_to_collapsed():
    # for any constant state the tail rows vanish and the head is the
    # collapsed rhs: steady states correspond one-to-one in both directions
    rng = np.random.default_rng(3)
    for model in (blowflies(MU, BETA), fluidflow()):
        ps = make_system(model, 6)
        for _ in range(5):
            v = rng.uniform(0.2, 2.0, size=model.dim)
            out = rhs(ps, replicate(v, 6)).reshape(7, model.dim)
            assert np.max(np.abs(out[0] - model.derivs.first(v, model.params)[0])) < 1e-12
            assert np.max(np.abs(out[1:])) < 1e-12


def test_rhs_blowflies_head_formula():
    ps = make_system(blowflies(MU, BETA), 4)
    rng = np.random.default_rng(5)
    y = rng.uniform(0.1, 3.0, size=5)
    out = rhs(ps, y)
    want = -MU * y[0] + BETA * y[4] * math.exp(-y[4])
    assert abs(out[0] - want) < 1e-12


def test_rhs_pure_transport():
    model = make_model(1, (0.0,), ("0",))
    ps = make_system(model, 3, equilibrium=[0.0])
    rng = np.random.default_rng(9)
    y = rng.normal(size=4)
    out = rhs(ps, y)
    assert out[0] == 0.0
    want = ps.diff.D @ y[1:] + ps.diff.d0 * y[0]
    assert np.max(np.abs(out[1:] - want)) < 1e-14


def test_rhs_off_node_delay():
    # tau = 0.3 is no node of the n = 7 mesh, so the lag row is a full
    # barycentric row rather than a unit vector
    model = make_model(1, (0.0, 0.3), ("-a*x0@0 + b*x0@1*exp(-x0@1)",),
                       {"a": 2.0, "b": 9.0})
    ps = make_system(model, 7, equilibrium=[math.log(4.5)])
    assert not np.any(np.isclose(ps.mesh.nodes, -0.3))
    rng = np.random.default_rng(11)
    y = rng.uniform(0.1, 3.0, size=8)
    out = rhs(ps, y)
    lag = interpolate(ps.mesh, y[0], y[1:], -0.3)
    assert abs(out[0] - (-2.0 * y[0] + 9.0 * lag * math.exp(-lag))) < 1e-13
    want = ps.diff.D @ y[1:] + ps.diff.d0 * y[0]
    assert np.max(np.abs(out[1:] - want)) < 1e-13


def test_rhs_two_component_layout():
    k, c = 1.5, 1.5
    ps = make_system(fluidflow(k, c), 7)
    rng = np.random.default_rng(13)
    y = rng.uniform(0.2, 2.0, size=(8, 2))
    out = rhs(ps, y.reshape(-1)).reshape(8, 2)
    w0, _ = interpolate(ps.mesh, y[0], y[1:], 0.0)
    w1, q1 = interpolate(ps.mesh, y[0], y[1:], -1.0)
    head = [1.0 - k * w0 * w1 * q1 / 2.0, w0 - c]
    assert np.max(np.abs(out[0] - head)) < 1e-13
    want = ps.diff.D @ y[1:] + np.outer(ps.diff.d0, y[0])
    assert np.max(np.abs(out[1:] - want)) < 1e-13


def test_charfn_blowflies_n2_closed_form():
    cf = make_system(blowflies(MU, BETA), 2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
        got = charfn_eval(cf, lam)
        want = delta2_exact(lam)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_charfn_at_zero():
    for n in (2, 5, 9):
        cf = make_system(blowflies(MU, BETA), n)
        assert abs(charfn_eval(cf, 0.0) - (-(B1 + B2))) < 1e-12


def test_charfn_converges_to_exponential():
    # gap to the delay characteristic function shrinks with n at lambda = i
    def delta0(lam):
        return lam - B1 - B2 * cmath.exp(-lam)

    gaps = []
    for n in (5, 8, 11, 14):
        cf = make_system(blowflies(MU, BETA), n)
        gaps.append(abs(charfn_eval(cf, 1j) - delta0(1j)))
    for a, b in zip(gaps, gaps[1:]):
        assert b < a or b < 1e-13
    assert gaps[-1] < 1e-9


def test_charfn_dlambda_n2_closed_form():
    cf = make_system(blowflies(MU, BETA), 2)
    rng = np.random.default_rng(13)
    for _ in range(20):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
        q = lam * lam + 3.0 * lam + 4.0
        want = 1.0 + B2 * (q + (4.0 - lam) * (2.0 * lam + 3.0)) / (q * q)
        got = charfn_dlambda(cf, lam)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want))


def test_charfn_dlambda_matches_fd():
    h = 1e-6
    for model, n in ((blowflies(MU, BETA), 7), (fluidflow(), 6)):
        cf = make_system(model, n)
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
            fd = (charfn_eval(cf, lam + h) - charfn_eval(cf, lam - h)) / (2 * h)
            got = charfn_dlambda(cf, lam)
            err = np.max(np.abs(np.atleast_2d(got - fd)))
            assert err <= 1e-6 * (1.0 + np.max(np.abs(np.atleast_2d(fd))))


def test_charfn_dlambda_without_delay_term():
    cf = make_system(scalar_linear(-3.0, 0.0), 5, equilibrium=[0.0])
    for lam in (0.3, 1.0 + 2.0j, -0.5 - 1.0j):
        assert abs(charfn_dlambda(cf, lam) - 1.0) < 1e-14


def test_charfn_dalpha_linear_coefficients():
    cf = make_system(scalar_linear(-1.0, 0.4), 2, equilibrium=[0.0])
    rng = np.random.default_rng(19)
    for _ in range(10):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        want = -(4.0 - lam) / (lam * lam + 3.0 * lam + 4.0)
        got = charfn_dalpha(cf, lam, "b2")
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))
        assert abs(charfn_dalpha(cf, lam, "b1") - (-1.0)) < 1e-6


def test_charfn_dalpha_tracks_equilibrium():
    # d Delta / d beta for the blowfly family: the delayed coefficient is
    # mu (1 - ln(beta/mu)), so its beta-derivative is -mu/beta
    cf = make_system(blowflies(MU, BETA), 2)
    lam = 0.7 + 1.3j
    want = (MU / BETA) * (4.0 - lam) / (lam * lam + 3.0 * lam + 4.0)
    got = charfn_dalpha(cf, lam, "beta")
    assert abs(got - want) <= 1e-6 * (1.0 + abs(want))


def test_charfn_dalpha_unused_parameter():
    model = make_model(
        1, (0.0, 1.0), ("x0@0 - 2*x0@1",), {"a": 1.0}, equilibrium_hint=[0.0]
    )
    cf = make_system(model, 4)
    assert charfn_dalpha(cf, 1.0 + 1.0j, "a") == 0.0
    with pytest.raises(UnknownSymbolError):
        charfn_dalpha(cf, 1.0, "nope")


def test_charfn_deterministic():
    cf = make_system(blowflies(MU, BETA), 8)
    lam = -0.3 + 2.1j
    first = charfn_eval(cf, lam)
    again = charfn_eval(cf, lam)  # cache hit
    fresh = charfn_eval(make_system(blowflies(MU, BETA), 8), lam)
    assert first == again == fresh


def test_spurious_lambda_conditioning_error():
    # the reduced differentiation matrix at n=2 has spectrum (-3 +/- i sqrt 7)/2
    cf = make_system(blowflies(MU, BETA), 2)
    spurious = (-3.0 + 1j * math.sqrt(7.0)) / 2.0
    with pytest.raises(ConditioningError):
        charfn_eval(cf, spurious)


def test_with_param_rebuilds_equilibrium():
    for n in (3, None):
        moved = make_system(blowflies(MU, BETA), n).with_param("beta", 60.0)
        assert moved.n == n
        assert abs(moved.equilibrium[0] - math.log(20.0)) < 1e-12
        want_b2 = MU * (1.0 - math.log(20.0))
        assert abs(moved.linear.mats[1][0, 0] - want_b2) < 1e-12


def three_delay_ring(a=3.0, b=1.0):
    """A three-component ring read at three delays (d > 2 adjugates)."""
    return make_model(
        3, (0.0, 0.5, 1.0),
        ("-x0@0 - a*sin(x2@2)", "-b*x1@0 + sin(x0@1)", "-x2@0 + x1@1 - 0.1*x2@1^2"),
        {"a": a, "b": b}, equilibrium_hint=[0.0, 0.0, 0.0],
    )


@pytest.mark.parametrize("n", [10, None], ids=["n10", "exact"])
@pytest.mark.parametrize("model",
                         [blowflies(MU, BETA), fluidflow(), three_delay_ring()],
                         ids=["blowflies", "fluidflow", "ring3"])
def test_jet_matches_public_charfn_bit_for_bit(model, n):
    ps = make_system(model, n)
    names = tuple(model.params)
    d = model.dim
    for lam in (0.3 + 2.1j, -0.4 + 0.9j, 1.7j):
        delta, dl, dalpha = _jet(ps, lam, names)
        # the assembly order the jet keeps: lambda I, then one C_k v_k per lag
        ref = lam * np.eye(d).astype(complex)
        ref_dl = np.eye(d).astype(complex)
        for c, v, dv in zip(ps.linear.mats, ps.lag_values(lam), ps.lag_values(lam, 1)):
            ref -= c * v
            ref_dl -= c * dv
        assert (delta == ref).all() and (dl == ref_dl).all()
        assert (delta == np.atleast_2d(charfn_eval(ps, lam))).all()
        assert (dl == np.atleast_2d(charfn_dlambda(ps, lam))).all()
        assert np.ndim(charfn_eval(ps, lam)) == (0 if d == 1 else 2)
        for name, got in zip(names, dalpha):
            ref_da = np.zeros((d, d), dtype=complex)
            for dc, v in zip(ps.linear.param_derivs[name], ps.lag_values(lam)):
                ref_da -= dc * v
            assert (got == ref_da).all()
            assert (got == np.atleast_2d(charfn_dalpha(ps, lam, name))).all()
        assert charfn_det(ps, lam) == (
            complex(delta[0, 0]) if d == 1 else complex(np.linalg.det(delta)))


def _same(a, b) -> bool:
    """Equal shape and bits."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", [
    blowflies(MU, BETA), fluidflow(), three_delay_ring(),
    make_model(2, (0.0, 0.5, 1.0), ("-x0@0 + 0.5*sin(x1@2)", "x0@1 - 2*x1@0"),
               equilibrium_hint=[0.0, 0.0]),
], ids=["blowflies", "fluidflow", "ring3", "no-params"])
def test_stacked_linearization_equals_the_public_views_bit_for_bit(model):
    # slot 0 of each delay is C_k, slot 1 + j its derivative in the j-th
    # parameter, from the Newton's last evaluation; linearize and
    # param_jacobians evaluate at the equilibrium afresh, and the reference
    # copies each block out of the derivative tensors on its own
    ps = make_system(model)
    stack, xbar = ps.linear.stack, ps.equilibrium
    names, n_lags, d = tuple(model.params), len(model.delays), model.dim
    assert stack.shape == (n_lags, 1 + len(names), d, d)
    assert stack.flags.c_contiguous  # every d x d slot is C-ordered
    grad = model.derivs.first(xbar, model.params)[1]
    public, derivs = linearize(model, xbar), param_jacobians(model, xbar)
    by_name = param_jacobians_by_name(model, xbar)
    assert list(derivs) == list(ps.linear.param_derivs) == list(by_name) == list(names)
    for k in range(n_lags):
        assert _same(stack[k, 0], grad[:, k, :])
        assert _same(stack[k, 0], public.mats[k]) and _same(stack[k, 0], ps.linear.mats[k])
        for j, name in enumerate(names):
            assert _same(stack[k, 1 + j], by_name[name][k])
            assert _same(stack[k, 1 + j], derivs[name][k])
            assert _same(stack[k, 1 + j], public.param_derivs[name][k])


@pytest.mark.parametrize("n", [10, None], ids=["n10", "exact"])
def test_jet_at_a_fold_takes_central_differences(n):
    # x' = a x - x(t-1)^3 + b x(t-1): the collapsed Jacobian a + b - 3 x^2
    # vanishes at the equilibrium 0 for a = b = 0, which every a, b keep
    model = make_model(1, (0.0, 1.0), ("a*x0@0 - x0@1^3 + b*x0@1",),
                       {"a": 0.0, "b": 0.0}, equilibrium_hint=[0.0])
    ps = make_system(model, n)
    lin = ps.linear
    assert lin.names is None and lin.param_derivs is None
    assert lin.stack.shape == (2, 1, 1, 1)
    lam = 0.3 + 2.1j
    delta, dl, dalpha = _jet(ps, lam, ("b", "a"))
    want = combine_jet(ps, lam, ("b", "a"))
    assert _same(delta, want[0]) and _same(dl, want[1])
    dalpha = list(dalpha)
    assert [_same(got, ref) for got, ref in zip(dalpha, want[2])] == [True, True]
    # Delta = lambda - a - b v_1(lambda) + 3 xbar^2 v_1(lambda)
    assert abs(dalpha[0][0, 0] + ps.lag_values(lam)[1]) < 1e-8
    assert abs(dalpha[1][0, 0] + 1.0) < 1e-8
    with pytest.raises(UnknownSymbolError):
        list(_jet(ps, lam, ("nope",))[2])


def test_first_derivatives_evaluated_once_at_the_equilibrium(monkeypatch):
    # _rows evaluates every compiled derivative; the Newton iterates on its
    # lists of the first derivatives, and first() shapes the same lists
    model = fluidflow()
    seen = []
    rows = model.derivs._rows

    def counting(fns, x, params):
        if fns is model.derivs._first:
            seen.append(np.array(x, dtype=float))
        return rows(fns, x, params)

    monkeypatch.setattr(model.derivs, "_rows", counting)
    ps = make_system(model, 10)
    assert seen == []  # nothing is solved before the first read
    ps.linear
    xbar = ps.equilibrium
    assert sum(np.array_equal(x, xbar) for x in seen) == 1
    for moved in (ps.with_param("k", 1.7), make_system(model, 10, equilibrium=xbar)):
        seen.clear()
        moved.linear
        assert sum(np.array_equal(x, moved.equilibrium) for x in seen) == 1


def test_eigvec_right_residual():
    for model, n in ((blowflies(MU, BETA), 6), (fluidflow(), 5)):
        ps = make_system(model, n)
        cf = make_system(model, n)
        a = assemble_An(ps)
        vals = eigenvalues(a)
        for lam in vals[:3]:
            p = eigvec_right(cf, lam)
            res = np.linalg.norm(a @ p - lam * p) / np.linalg.norm(p)
            assert res < 1e-10


def test_eigvec_right_zero_root():
    cf = make_system(scalar_linear(1.0, -1.0), 6, equilibrium=[0.0])
    p = eigvec_right(cf, 0.0)
    assert np.max(np.abs(p - 1.0)) < 1e-13


def test_eigvec_right_n2_explicit():
    # closed-form eigenvector at a cubic eigenvalue: (1, (lam+4)/q, (4-lam)/q)
    coeffs = [1.0, 3.0 - B1, 4.0 - 3.0 * B1 + B2, -4.0 * (B1 + B2)]
    lam = sorted(np.roots(coeffs), key=lambda z: -z.real)[0]
    cf = make_system(blowflies(MU, BETA), 2)
    p = eigvec_right(cf, lam)
    q = lam * lam + 3.0 * lam + 4.0
    want = np.array([1.0, (lam + 4.0) / q, (4.0 - lam) / q])
    assert np.max(np.abs(p - want)) < 1e-10


def test_eigvec_right_rejects_non_root():
    cf = make_system(blowflies(MU, BETA), 4)
    with pytest.raises(ValueError):
        eigvec_right(cf, 0.123 + 0.456j)


def test_eigvec_left_properties():
    for model, n in ((blowflies(MU, BETA), 6), (fluidflow(), 5)):
        ps = make_system(model, n)
        cf = make_system(model, n)
        a = assemble_An(ps)
        lam = eigenvalues(a)[0]
        p = eigvec_right(cf, lam)
        q = eigvec_left(cf, lam, p)
        assert abs(q @ p - 1.0) < 1e-11
        res = np.linalg.norm(a.T @ q - lam * q) / np.linalg.norm(q)
        assert res < 1e-10


def test_projection_idempotent():
    rng = np.random.default_rng(23)
    for model, n in ((blowflies(MU, BETA), 6), (fluidflow(), 4)):
        cf = make_system(model, n)
        ps = make_system(model, n)
        lam = eigenvalues(assemble_An(ps))[0]
        for _ in range(5):
            zeta = rng.normal(size=(n + 1) * model.dim) + 1j * rng.normal(
                size=(n + 1) * model.dim
            )
            once = projection_apply(cf, lam, zeta)
            twice = projection_apply(cf, lam, once)
            assert np.max(np.abs(twice - once)) < 1e-10 * (
                1.0 + np.max(np.abs(once))
            )


def test_resolvent_identity():
    rng = np.random.default_rng(29)
    for model, n in ((blowflies(MU, BETA), 8), (fluidflow(), 5)):
        ps = make_system(model, n)
        cf = make_system(model, n)
        a = assemble_An(ps)
        size = (n + 1) * model.dim
        vals = eigenvalues(a)
        checked = 0
        while checked < 8:
            lam = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
            if np.min(np.abs(vals - lam)) < 0.2:
                continue
            zeta = rng.normal(size=size) + 1j * rng.normal(size=size)
            h = resolvent_apply(cf, lam, zeta)
            back = lam * h - a @ h
            assert np.max(np.abs(back - zeta)) < 1e-10 * (1.0 + np.max(np.abs(zeta)))
            checked += 1


@settings(max_examples=40)
@given(
    n=st.integers(1, 30),
    two_dim=st.booleans(),
    re=st.floats(-3.0, 3.0),
    im=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**16),
)
def test_resolvent_identity_away_from_the_spectrum(n, two_dim, re, im, seed):
    # (lambda I - A_n) resolvent_apply(ps, lambda, zeta) = zeta, with the
    # backward error bounded by the rounding of the product
    model = fluidflow() if two_dim else blowflies(MU, BETA)
    ps = make_system(model, n)
    a = assemble_An(ps)
    lam = complex(re, im)
    for spectrum in (eigenvalues(a), np.linalg.eigvals(ps.diff.D)):
        assume(np.min(np.abs(spectrum - lam)) > 0.1)
    rng = np.random.default_rng(seed)
    zeta = rng.normal(size=a.shape[0]) + 1j * rng.normal(size=a.shape[0])
    h = resolvent_apply(ps, lam, zeta)
    shifted = lam * np.eye(a.shape[0]) - a
    err = np.linalg.norm(shifted @ h - zeta)
    scale = np.linalg.norm(shifted, 2) * np.linalg.norm(h) + np.linalg.norm(zeta)
    assert err <= 1e-12 * scale


def test_resolvent_unit_head():
    cf = make_system(blowflies(MU, BETA), 5)
    zeta = np.zeros(6)
    zeta[0] = 1.0
    h = resolvent_apply(cf, 0.0, zeta)
    assert abs(h[0] - (-1.0 / (B1 + B2))) < 1e-12
    # (D - 0 I)^{-1} D 1 = 1, so the whole vector is constant
    assert np.max(np.abs(h - h[0])) < 1e-12


def test_resolvent_at_eigenvalue_fails():
    ps = make_system(blowflies(MU, BETA), 4)
    cf = make_system(blowflies(MU, BETA), 4)
    lam = eigenvalues(assemble_An(ps))[0]
    with pytest.raises(SingularityError):
        resolvent_apply(cf, lam, np.ones(5))


def test_eigenvalues_diagonal():
    got = eigenvalues(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(got, [3.0, 2.0, 1.0])


def test_eigenvalues_blowflies_n2_cubic():
    ps = make_system(blowflies(MU, BETA), 2)
    got = eigenvalues(assemble_An(ps))
    want = np.roots([1.0, 3.0 - B1, 4.0 - 3.0 * B1 + B2, -4.0 * (B1 + B2)])
    want = want[np.lexsort((-want.imag, -want.real))]
    assert np.max(np.abs(got - want)) < 1e-10


def test_eigenvalues_reject_nonfinite():
    with pytest.raises(ValueError):
        eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_eigenvalues_are_charfn_roots():
    rng = np.random.default_rng(31)
    for _ in range(10):
        b1 = float(rng.uniform(-5, 5))
        b2 = float(rng.uniform(-5, 5))
        n = int(rng.integers(3, 11))
        model = scalar_linear(b1, b2)
        cf = make_system(model, n, equilibrium=[0.0])
        a = assemble_An(make_system(model, n, equilibrium=[0.0]))
        for lam in eigenvalues(a):
            res = abs(charfn_eval(cf, lam))
            assert res < 1e-8 * (1.0 + abs(lam))
            # one Newton step barely moves a converged root
            step = charfn_eval(cf, lam) / charfn_dlambda(cf, lam)
            assert abs(step) < 1e-6 * (1.0 + abs(lam))


def test_simplicity_guard():
    cf = make_system(blowflies(MU, BETA), 4)
    lam = eigenvalues(assemble_An(make_system(blowflies(MU, BETA), 4)))[0]
    q = eigvec_left(cf, lam)  # healthy simple root: no raise
    assert np.all(np.isfinite(q.real)) and np.all(np.isfinite(q.imag))
    # D1 Delta(lam) = 1 - b2 s(lam) with s independent of b2, so choosing
    # b2 = 1/s(1) zeros the derivative at lambda = 1 and must trip the guard
    probe = make_system(scalar_linear(0.0, 1.0), 4, equilibrium=[0.0])
    s_at_one = 1.0 - charfn_dlambda(probe, 1.0)
    degenerate = make_system(
        scalar_linear(0.0, float(1.0 / s_at_one.real)), 4, equilibrium=[0.0]
    )
    with pytest.raises(SimplicityError):
        eigvec_left(degenerate, 1.0)


@pytest.mark.parametrize("call", [
    lambda ps: rhs(ps, np.ones(1)),
    lambda ps: assemble_An(ps),
    lambda ps: ps.lag_solve(1j),
    lambda ps: eigvec_right(ps, 1j),
    lambda ps: eigvec_left(ps, 1j),
    lambda ps: resolvent_apply(ps, 1j, np.ones(1)),
], ids=["rhs", "assemble_An", "lag_solve", "eigvec_right", "eigvec_left",
        "resolvent_apply"])
def test_degree_only_operations_refuse_the_delay_equation(call):
    with pytest.raises(ValueError, match="needs a collocation degree") as err:
        call(make_system(blowflies(3.0, 25.0)))
    assert "make_system(model, n)" in str(err.value)


def _lu_solve_twice(factors, b):
    """scipy.linalg.lu_solve with b passed as two equal column blocks, the
    first kept: with more than one right-hand side getrs takes its trsm
    path, whose bits are the one-thread bits at any BLAS thread count (with
    one right-hand side it takes trsv, whose bits are not)."""
    b = np.asarray(b, dtype=complex)
    cols = b.reshape(len(b), -1)
    return lu_solve(factors, np.hstack([cols, cols]))[:, : cols.shape[1]].reshape(b.shape)


def _reference_solves(ps, lam, zeta):
    """The lag solve, lag_values(order=1) and resolvent_apply computed with
    scipy.linalg's LU wrappers, and lag_values(order=1) from a second LU
    solve; None where the reciprocal 1-norm condition number of
    D - lambda I is below 1e-14, where the library refuses. The library's
    derivative is the inverse (the factor solved against I) times x, so
    that is the bit-for-bit reference; a second LU solve for x' is
    only as close as the conditioning allows."""
    k, d, n = len(ps.model.delays), ps.dim, ps.n
    mat = ps.diff.D - lam * np.eye(n)
    if 1.0 / np.linalg.cond(mat, 1) < 1e-14:
        return None
    factors = lu_factor(mat.astype(complex))
    x = _lu_solve_twice(factors, -ps.diff.d0)
    inverse = np.ascontiguousarray(_lu_solve_twice(factors, np.eye(n)))
    lag = [row[0] * 1.0 + row[1:] @ x for row in ps.op[:k]]
    dlag = [row[0] * 0.0 + row[1:] @ (inverse @ x) for row in ps.op[:k]]
    resolved = _lu_solve_twice(factors, x)
    dlag_solved = [row[1:] @ resolved for row in ps.op[:k]]
    resolvent_lu = lu_factor(lam * np.eye(n) - ps.diff.D.astype(complex))
    x_part = _lu_solve_twice(resolvent_lu, zeta[1:])
    x_eig = _lu_solve_twice(resolvent_lu, ps.diff.d0)
    delta = lam * np.eye(d).astype(complex)
    for c, val in zip(ps.linear.mats, lag):
        delta -= c * val
    head_rhs = zeta[0].copy()
    for row, c in zip(ps.op[:k], ps.linear.mats):
        head_rhs += c @ (row[1:] @ x_part)
    h0 = np.linalg.solve(delta, head_rhs)
    tail = x_part + np.outer(x_eig, h0)
    # inverse @ x and the second LU solve both carry a forward error of order
    # n eps cond_1 ||inverse||_1 ||x||_1 (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., sections 13.1 and 14.1), summed by each
    # lag row's tail; 16 n eps covers both and the rounding of the products
    cond = np.linalg.cond(mat, 1)
    scale = 16 * n * np.finfo(float).eps * cond * np.abs(inverse).sum(axis=0).max()
    bounds = [scale * np.abs(row[1:]).max() * np.abs(x).sum() for row in ps.op[:k]]
    return x, dlag, np.concatenate([h0, tail.reshape(-1)]), (dlag_solved, bounds)


#: models for the solve comparisons: with the delays 0 and 1 alone every
#: lag row's tail is 0 or a unit vector, so products with it round nothing
SOLVE_MODELS = [
    lambda: blowflies(MU, BETA),
    fluidflow,
    lambda: make_model(1, (0.0, 0.37, 1.0), ("-a*x0@0 + b*x0@1*exp(-x0@2)",),
                       {"a": MU, "b": BETA}, (NBAR,)),
    lambda: make_model(2, (0.0, 0.5, 1.0),
                       ("-x0@0 + k*x1@1 - x0@2^3", "-c*x1@0 - x0@1 + 0.5*x1@2"),
                       {"k": 1.5, "c": 1.0}, (0.0, 0.0)),
]


@settings(max_examples=80)
@given(
    n=st.integers(1, 48),
    which=st.integers(0, len(SOLVE_MODELS) - 1),
    lam=st.complex_numbers(max_magnitude=40.0),
    seed=st.integers(0, 2**16),
)
def test_lapack_solves_match_scipy_wrappers(n, which, lam, seed):
    model = SOLVE_MODELS[which]()
    ps = make_system(model, n)
    d = model.dim
    rng = np.random.default_rng(seed)
    zeta = rng.normal(size=(n + 1, d)) + 1j * rng.normal(size=(n + 1, d))
    want = _reference_solves(ps, lam, zeta)
    if want is None:
        with pytest.raises(ConditioningError):
            resolvent_apply(ps, lam, zeta.reshape(-1))
    else:
        x, dlag, h, (dlag_solved, bounds) = want
        got = ps.lag_solve(lam)
        assert np.array_equal(got, x)
        assert ps.lag_solve(lam) is got  # a cache hit returns the cached array
        slopes = ps.lag_values(lam, 1)
        assert np.array_equal(slopes, dlag)
        # against a second LU solve, to the conditioning-scaled bound
        assert all(abs(a - b) <= bound for a, b, bound in zip(slopes, dlag_solved, bounds))
        assert np.array_equal(resolvent_apply(ps, lam, zeta.reshape(-1)), h)

    for bad in (complex(math.inf, 0.0), complex(0.0, math.nan)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            ps.lag_solve(bad)
    with pytest.raises(ValueError):
        resolvent_apply(ps, lam, np.full((n + 1) * d, math.inf))

    at_d = np.linalg.eigvals(ps.diff.D)[seed % n]
    fresh = make_system(model, n)
    with pytest.raises(ConditioningError):
        resolvent_apply(fresh, at_d, zeta.reshape(-1))
    with pytest.raises(ConditioningError):
        fresh.lag_solve(at_d)


@settings(max_examples=60)
@given(
    n=st.integers(1, 48),
    which=st.integers(0, len(SOLVE_MODELS) - 1),
    shifts=st.lists(st.complex_numbers(max_magnitude=40.0), min_size=0, max_size=12),
    pole=st.integers(0, 47),
    at=st.integers(0, 12),
)
def test_stacked_factorization_caches_the_one_shift_bits(n, which, shifts, pole, at):
    # a Hopf diagnosis factors its shifts in one call on their stack; each
    # cache entry (x and the inverse) keeps the bits of a one-shift lag
    # solve, and a shift at an eigenvalue of D stays uncached and is refused
    model = SOLVE_MODELS[which]()
    spurious = complex(np.linalg.eigvals(make_system(model, n).diff.D)[pole % n])
    shifts = shifts[:at] + [spurious] + shifts[at:]
    stacked = make_system(model, n)
    calls = []

    def counting(a, b):
        calls.append(np.shape(a))
        return lu(a, b)

    lu = discretize.lu_factor
    try:
        discretize.lu_factor = counting
        rconds = _factor(stacked, shifts)
    finally:
        discretize.lu_factor = lu
    assert calls == [(len(set(map(complex, shifts))), n, n)]
    refused = all(rcond == 0.0 for rcond in rconds.values())  # an exact zero pivot
    single = make_system(model, n)
    for lam in shifts:
        lam = complex(lam)
        try:
            x = single.lag_solve(lam)
        except ConditioningError:
            assert lam not in stacked._solves
            with pytest.raises(ConditioningError):
                stacked.lag_solve(lam)
            continue
        assert lam in stacked._solves or refused
        assert np.array_equal(stacked.lag_solve(lam), x)
        assert all(a.flags.c_contiguous for a in stacked._solves[lam])
        assert all(np.array_equal(a, b) for a, b in zip(stacked._solves[lam], single._solves[lam]))
    assert spurious not in stacked._solves


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("model", [blowflies(MU, BETA), fluidflow(), three_delay_ring()],
                         ids=["blowflies", "fluidflow", "ring3"])
def test_assemble_An_is_the_kron_product(model, n):
    # bytes, so the signed zeros of op[K:] x I_d (d > 1) count
    for ps in (make_system(model, n), make_system(model, n, equilibrium=[0.3] * model.dim)):
        assert assemble_An(ps).tobytes() == assemble_An_kron(ps).tobytes()


def _outcome(fn, *args):
    """The bits of fn's result, or the class and message of what it raised."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _svd_min(mat):
    return np.linalg.svd(mat, compute_uv=False)[-1]


#: zeros, subnormals, the ends of the closed form's range, overflow and NaN
SCALAR_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1e-131, 1e-130, 1.5, 1e130, 1e131, -1e300, math.inf, -math.inf,
                math.nan]

#: below and above the closed form's range gesdd rescales z first, which
#: moves the last bit of these two away from the closed form
RESCALED = [complex(6.647279586645176e-143, 1.2252826540812514e-151),
            complex(1.2823829775261583e+142, 1.3697822952800833e+137)]

#: magnitudes across the closed form's range [1e-130, 1e130] and past it
scaled_floats = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
                          st.integers(-140, 140))


def test_smin_of_a_scalar_edge_is_lapacks_value():
    for z in RESCALED:
        assert _outcome(_smin, np.array([[z]])) == _outcome(_svd_min, np.array([[z]]))
    for re in SCALAR_EDGES:
        assert _outcome(_smin, np.array([[re]])) == _outcome(_svd_min, np.array([[re]]))
        for im in SCALAR_EDGES:
            mat = np.array([[complex(re, im)]])
            assert _outcome(_smin, mat) == _outcome(_svd_min, mat), (re, im)


@settings(max_examples=400)
@given(re=st.one_of(st.floats(), scaled_floats),
       im=st.one_of(st.floats(), scaled_floats), real=st.booleans())
def test_smin_of_a_scalar_is_lapacks_value(re, im, real):
    # bit for bit, so the printed margins and residuals do not move
    mat = np.array([[re]]) if real else np.array([[complex(re, im)]])
    assert _outcome(_smin, mat) == _outcome(_svd_min, mat)
