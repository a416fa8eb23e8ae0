import cmath
import math

import numpy as np
import pytest

from chebdde.cheb_mesh import interpolate
from chebdde.discretize import (
    assemble_An,
    charfn_dalpha,
    charfn_det,
    charfn_dlambda,
    charfn_eval,
    eigenvalues,
    eigvec_left,
    eigvec_right,
    make_system,
    projection_apply,
    replicate,
    resolvent_apply,
    rhs,
)
from chebdde.errors import (
    ConditioningError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from chebdde.model import blowflies, equilibrium_solve, fluidflow, make_model

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
    from chebdde.model import collapsed_rhs

    rng = np.random.default_rng(3)
    for model in (blowflies(MU, BETA), fluidflow()):
        ps = make_system(model, 6)
        for _ in range(5):
            v = rng.uniform(0.2, 2.0, size=model.dim)
            out = rhs(ps, replicate(v, 6)).reshape(7, model.dim)
            assert np.max(np.abs(out[0] - collapsed_rhs(model, v))) < 1e-12
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
