import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chebdde.analytic import (
    boundary,
    c_blowfly,
    to_mu_beta,
)
from chebdde.discretize import assemble_An, charfn_eval, eigenvalues, make_system
from chebdde.errors import (
    ChebddeError,
    ContinuationError,
    ConvergenceError,
    NotARootError,
    ResonanceError,
    SingularityError,
    UnknownSymbolError,
)
from chebdde import hopf
from chebdde.hopf import (
    K_MAX,
    _nonresonance_verdict,
    convergence_study,
    find_hopf,
    hopf_point,
    trace_hopf_curve,
)
from chebdde.model import blowflies, fluidflow, make_model
from _reference import lambda_prime_n2_re

MU = 3.0


def blowfly_oracle(mu=MU):
    """Critical (omega, beta) at fixed mu from bisecting b1(omega) = -mu."""
    lo, hi = 1.6, 3.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if boundary(mid)[0] > -mu:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w, to_mu_beta(*boundary(w))[1]


def linear_model(b1, b2):
    return make_model(
        1, (0.0, 1.0), ("b1*x0@0 + b2*x0@1",), {"b1": b1, "b2": b2},
        equilibrium_hint=[0.0],
    )


def boundary_blowflies(w):
    return blowflies(*to_mu_beta(*boundary(w)))


def test_find_hopf_matches_bisection_oracle():
    w_star, beta_star = blowfly_oracle()
    h = find_hopf(make_system(blowflies(MU, 25.0)), "beta", 2.4, 25.0)
    assert abs(h.omega - w_star) < 1e-10
    assert abs(h.alpha - beta_star) < 1e-10
    assert h.param == "beta"
    assert h.residuals and h.residuals[-1] < 1e-12 * (1.0 + h.omega)
    assert h.sigma != 0.0
    assert h.a2 == h.c.real / h.sigma
    assert h.simplicity_margin > 1.0
    assert h.nonresonance.ok


def test_find_hopf_quadratic_residual_tail():
    h = find_hopf(make_system(blowflies(MU, 25.0)), "beta", 2.4, 25.0)
    tail = [
        (a, b) for a, b in zip(h.residuals, h.residuals[1:]) if a < 1e-4
    ]
    assert tail
    for a, b in tail:
        assert b <= 100.0 * a * a


def test_find_hopf_discretized_error_decreases():
    w_star, beta_star = blowfly_oracle()
    m = blowflies(MU, 25.0)
    beta_errs, omega_errs = [], []
    for n in (4, 6, 8, 10, 12):
        h = find_hopf(make_system(m, n), "beta", 2.4, 25.0)
        beta_errs.append(abs(h.alpha - beta_star))
        omega_errs.append(abs(h.omega - w_star))
    assert all(b < a for a, b in zip(beta_errs, beta_errs[1:]))
    assert all(b < a for a, b in zip(omega_errs, omega_errs[1:]))
    assert beta_errs[3] < 1e-6  # n = 10
    assert beta_errs[4] < 1e-8  # n = 12


def test_find_hopf_input_validation():
    cf = make_system(blowflies(MU, 25.0))
    with pytest.raises(ValueError):
        find_hopf(cf, "beta", -2.0, 25.0)
    with pytest.raises(UnknownSymbolError):
        find_hopf(cf, "nope", 2.4, 25.0)


def test_hopf_point_rejects_nonroot():
    cf = make_system(blowflies(MU, 25.0))
    with pytest.raises(ValueError, match="does not solve"):
        hopf_point(cf, "beta", 2.4, 25.0)
    # the root check comes before any parameter derivative is built
    with pytest.raises(NotARootError):
        hopf_point(cf, "nope", 2.4, 25.0)


@pytest.mark.parametrize("n", [None, 10])
def test_nonroot_is_a_numerical_failure_with_a_payload(n):
    # a ChebddeError, so the CLI reports it as exit 1 with a JSON payload
    with pytest.raises(ChebddeError, match="does not solve") as err:
        hopf_point(make_system(blowflies(MU, 25.0), n), "beta", 2.4, 25.0)
    payload = err.value.payload()
    assert payload["error"] == "not_a_root"
    assert payload["message"].startswith("(omega, beta) = (2.4, 25) does not solve")


def test_sigma_and_a2_match_closed_forms():
    h = find_hopf(make_system(blowflies(MU, 25.0)), "beta", 2.4, 25.0)
    b2 = MU * (1.0 - math.log(h.alpha / MU))
    ew = cmath.exp(-1j * h.omega)
    sigma_closed = ((MU / h.alpha) * ew / (1.0 + b2 * ew)).real
    assert abs(h.sigma - sigma_closed) < 1e-12
    a2_closed = c_blowfly(h.omega).real / sigma_closed
    assert abs(h.a2 - a2_closed) < 1e-10
    assert abs(h.c - c_blowfly(h.omega)) < 1e-12


def test_transversality_n2_crossing_speed():
    # the printed n=2 crossing-speed formula carries the opposite
    # orientation to d/d b2, so sigma equals +Re lambda' here
    w = 1.7
    b1, b2 = boundary(w, 2)
    h = hopf_point(make_system(linear_model(b1, b2), 2), "b2", w, b2)
    assert abs(h.sigma - lambda_prime_n2_re(w)) < 1e-12
    assert h.sigma > 0.0 and lambda_prime_n2_re(w) > 0.0


def test_transversality_zero_for_silent_parameter():
    w = 2.0
    b1, b2 = boundary(w)
    m = make_model(
        1, (0.0, 1.0), ("b1*x0@0 + b2*x0@1 + a*x0@1^3",),
        {"b1": b1, "b2": b2, "a": 0.4}, equilibrium_hint=[0.0],
    )
    cf = make_system(m)
    h = hopf_point(cf, "a", w, 0.4)
    assert h.sigma == 0.0
    assert math.isnan(h.a2)
    # off the root the Newton matrix has a zero parameter column
    with pytest.raises(SingularityError):
        find_hopf(cf, "a", w + 0.1, 0.5)


def test_lyapunov_matches_boundary_closed_forms():
    w = 2.0
    m0 = boundary_blowflies(w)
    cf0 = make_system(m0)
    h0 = hopf_point(cf0, "beta", w, m0.params["beta"])
    assert abs(h0.c - c_blowfly(w)) < 1e-12

    mu5, beta5 = to_mu_beta(*boundary(w, 5))
    m5 = blowflies(mu5, beta5)
    cf5 = make_system(m5, 5)
    h5 = hopf_point(cf5, "beta", w, beta5)
    assert abs(h5.c - c_blowfly(w, 5)) < 1e-10


def test_lyapunov_odd_nonlinearity():
    # without quadratic terms only the cubic term survives:
    # c = 3 a e^{-i w} / (1 + b2 e^{-i w})
    w, a = 2.0, 0.35
    b1, b2 = boundary(w)
    m = make_model(
        1, (0.0, 1.0), ("b1*x0@0 + b2*x0@1 + a*x0@1^3",),
        {"b1": b1, "b2": b2, "a": a}, equilibrium_hint=[0.0],
    )
    h = hopf_point(make_system(m), "b2", w, b2)
    want = 3.0 * a * cmath.exp(-1j * w) / (1.0 + b2 * cmath.exp(-1j * w))
    assert abs(h.c - want) < 1e-13


def test_lyapunov_linear_model_degenerate():
    w = 2.0
    b1, b2 = boundary(w)
    h = hopf_point(make_system(linear_model(b1, b2)), "b2", w, b2)
    assert h.c == 0.0
    assert h.a2 == 0.0


def loop_critical(turn):
    """omega + atan(omega) = turn, gain sqrt(1 + omega^2): a ring of unit
    decays whose delayed sine coupling turns the phase by turn."""
    lo, hi = 0.0, turn
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + math.atan(mid) < turn:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return w, math.sqrt(1.0 + w * w)


def twoloop_critical():
    return loop_critical(math.pi)


def twoloop(g=2.2):
    return make_model(
        2, (0.0, 1.0), ("-x0@0 + g*sin(x1@1)", "-x1@0 + g*sin(x0@1)"),
        {"g": g}, equilibrium_hint=[0.0, 0.0],
    )


def test_two_loop_system_closed_form():
    # det Delta = (l+1-g e^-l)(l+1+g e^-l); with p = (1,-1), q = p/(2(2+iw))
    # the odd coupling gives c = -(1+iw)/(2(2+iw))
    w_star, g_star = twoloop_critical()
    c_closed = -(1 + 1j * w_star) / (2 * (2 + 1j * w_star))
    sigma_closed = -((1 + 1j * w_star) / (g_star * (2 + 1j * w_star))).real

    h = find_hopf(make_system(twoloop()), "g", 2.0, 2.2)
    assert abs(h.omega - w_star) < 1e-12
    assert abs(h.alpha - g_star) < 1e-12
    assert abs(h.c - c_closed) < 1e-13
    assert abs(h.sigma - sigma_closed) < 1e-13
    assert h.nonresonance.ok

    hn = find_hopf(make_system(twoloop(), 12), "g", 2.0, 2.2)
    assert abs(hn.omega - w_star) < 1e-10
    assert abs(hn.alpha - g_star) < 1e-10
    assert abs(hn.c - c_closed) < 1e-10
    # the other determinant factor has a real unstable root near 0.447
    assert hn.nonresonance.axis_clearance > 0.3
    assert hn.nonresonance.near_axis == ()


def test_three_loop_ring_closed_form():
    # x_i' = -x_i + a sin(x_{i-1}(t-1)), i mod 3: det Delta =
    # (l+1)^3 - a^3 e^{-3l}, and the factor l + 1 = a e^{-l} e^{2 pi i/3}
    # crosses the axis first; the coupling is odd, so c is the two-loop form
    w_star, a_star = loop_critical(2.0 * math.pi / 3.0)
    c_closed = -(1 + 1j * w_star) / (2 * (2 + 1j * w_star))
    ring = make_model(
        3, (0.0, 1.0),
        ("-x0@0 + a*sin(x2@1)", "-x1@0 + a*sin(x0@1)", "-x2@0 + a*sin(x1@1)"),
        {"a": 1.5}, equilibrium_hint=[0.0, 0.0, 0.0],
    )
    h = find_hopf(make_system(ring), "a", 1.2, 1.5)
    assert abs(h.omega - w_star) < 1e-12
    assert abs(h.alpha - a_star) < 1e-12
    assert abs(h.c - c_closed) < 1e-12
    assert h.nonresonance.ok

    hn = find_hopf(make_system(ring, 12), "a", 1.2, 1.5)
    assert abs(hn.omega - w_star) < 1e-10
    assert abs(hn.alpha - a_star) < 1e-10
    assert abs(hn.c - c_closed) < 1e-10


def test_slaved_component_matches_scalar_coefficient():
    # a second component driven by the first but not feeding back leaves
    # the critical data of the scalar problem untouched
    w = 2.0
    mu, beta = to_mu_beta(*boundary(w))
    xbar = math.log(beta / mu)
    m = make_model(
        2, (0.0, 1.0),
        ("-mu*x0@0 + beta*x0@1*exp(-x0@1)", "x0@0 - x1@0"),
        {"mu": mu, "beta": beta}, equilibrium_hint=[xbar, xbar],
    )
    h = hopf_point(make_system(m), "beta", w, beta)
    assert abs(h.c - c_blowfly(w)) < 1e-13
    hn = hopf_point(make_system(m, 12), "beta", w, beta)
    assert abs(hn.c - c_blowfly(w)) < 1e-9


def test_resonance_zero_root():
    # coefficients solved so that Delta(i w) = Delta(0) = 0 simultaneously
    w = 2.0
    a = np.array([
        [1.0, math.cos(w / 2), math.cos(w)],
        [0.0, math.sin(w / 2), math.sin(w)],
        [1.0, 1.0, 1.0],
    ])
    c0v, c1v, c2v = np.linalg.solve(a, [0.0, -w, 0.0])
    m = make_model(
        1, (0.0, 0.5, 1.0), ("c0*x0@0 + c1*x0@1 + c2*x0@2 + x0@2^2",),
        {"c0": c0v, "c1": c1v, "c2": c2v}, equilibrium_hint=[0.0],
    )
    cf = make_system(m)
    assert abs(charfn_eval(cf, 1j * w)) < 1e-14
    assert abs(charfn_eval(cf, 0.0)) < 1e-14
    with pytest.raises(ResonanceError, match="0 is a root"):
        hopf_point(cf, "c0", w, c0v)


def test_resonance_two_to_one():
    w = 2.0
    a = np.array([
        [1.0, math.cos(w / 3), math.cos(2 * w / 3), math.cos(w)],
        [0.0, math.sin(w / 3), math.sin(2 * w / 3), math.sin(w)],
        [1.0, math.cos(2 * w / 3), math.cos(4 * w / 3), math.cos(2 * w)],
        [0.0, math.sin(2 * w / 3), math.sin(4 * w / 3), math.sin(2 * w)],
    ])
    d0, d1, d2, d3 = np.linalg.solve(a, [0.0, -w, 0.0, -2 * w])
    m = make_model(
        1, (0.0, 1 / 3, 2 / 3, 1.0),
        ("d0*x0@0 + d1*x0@1 + d2*x0@2 + d3*x0@3 + x0@3^2",),
        {"d0": d0, "d1": d1, "d2": d2, "d3": d3}, equilibrium_hint=[0.0],
    )
    cf = make_system(m)
    assert abs(charfn_eval(cf, 2j * w)) < 1e-13
    with pytest.raises(ResonanceError, match="two-to-one"):
        hopf_point(cf, "d0", w, d0)


def test_nonresonance_interior_pass():
    m = blowflies(MU, 25.0)
    h0 = find_hopf(make_system(m), "beta", 2.4, 25.0)
    assert h0.nonresonance.ok
    assert h0.nonresonance.failures == ()
    assert h0.nonresonance.axis_clearance is None
    ks = [k for k, _ in h0.nonresonance.margins]
    assert ks == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert all(margin > 1e-8 * (1 + k * h0.omega)
               for k, margin in h0.nonresonance.margins)

    h10 = find_hopf(make_system(m, 10), "beta", 2.4, 25.0)
    assert h10.nonresonance.ok
    assert h10.nonresonance.near_axis == ()
    assert h10.nonresonance.axis_clearance > 0.5


def test_nonresonance_corner_double_root():
    # at (b1, b2) = (1, -1) zero is a double characteristic root, so the
    # k = 0 margin collapses while k = 2 stays clear
    # omega = 1e-3 is not a root, so the scan runs on its own
    cf = make_system(linear_model(1.0, -1.0))
    verdict = _nonresonance_verdict(cf, 1e-3)
    assert not verdict.ok
    assert verdict.failures == (0,)
    margins = dict(verdict.margins)
    assert margins[0] < 1e-12
    assert margins[2] > 1e-8 * (1 + 2e-3)


@pytest.mark.parametrize("n", [None, 10], ids=["exact", "n10"])
def test_hopf_point_assembles_delta_once_per_resonance_shift(n, monkeypatch):
    # one jet at i omega serves the root check, the simplicity margin and,
    # from its lag values, sigma's parameter derivative; the Lyapunov solves
    # at 0 and 2 i omega hand their margins to the resonance scan, which
    # assembles Delta only at k = 3..K_MAX
    h = find_hopf(make_system(blowflies(MU, 25.0), n), "beta", 2.4, 25.0)
    cf = make_system(blowflies(MU, h.alpha), n)
    shifts = []

    def counting_jet(ps, lam, *args, **kwargs):
        shifts.append(complex(lam))
        return jet(ps, lam, *args, **kwargs)

    jet = hopf._jet
    monkeypatch.setattr(hopf, "_jet", counting_jet)
    got = hopf_point(cf, "beta", h.omega, h.alpha)
    # the rebuilt equilibrium agrees with find_hopf's to roundoff
    assert [k for k, _ in got.nonresonance.margins] == [0, *range(2, K_MAX + 1)]
    assert np.allclose([m for _, m in got.nonresonance.margins],
                       [m for _, m in h.nonresonance.margins], rtol=1e-12, atol=0)
    for k in range(K_MAX + 1):
        assert shifts.count(1j * (k * h.omega)) == 1, k


def test_scalar_hopf_paths_skip_linalg_on_real_and_1x1_blocks(monkeypatch):
    # d = 1: the smallest singular value of Delta and the equilibrium's
    # Newton steps and drift are closed forms; only the complex 1 x 1 solves
    # of the Lyapunov coefficient still call LAPACK
    svd, solve = np.linalg.svd, np.linalg.solve

    def guarded_svd(a, *args, **kwargs):
        assert np.shape(a)[-2:] != (1, 1), "svd of a 1 x 1 block"
        return svd(a, *args, **kwargs)

    def guarded_solve(a, b):
        assert np.shape(a) != (1, 1) or np.iscomplexobj(a), "real 1 x 1 solve"
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "svd", guarded_svd)
    monkeypatch.setattr(np.linalg, "solve", guarded_solve)
    model = blowflies(MU, 25.0)
    h = find_hopf(make_system(model), "beta", 2.4, 25.0)
    assert h.nonresonance.ok
    h10 = find_hopf(make_system(model, 10), "beta", 2.4, 25.0)
    curve = trace_hopf_curve(model, ("mu", "beta"), h10, 0.25, max_points=7, n=10)
    assert curve.points.shape == (7, 3)


def test_nonresonance_n2_scan_covers_all_three_eigenvalues():
    # A_2 has exactly three eigenvalues: the critical pair plus one real,
    # so no 1:k resonance is possible and the scan must come back clean
    w = 1.7
    b1, b2 = boundary(w, 2)
    cf = make_system(linear_model(b1, b2), 2)
    vals = eigenvalues(assemble_An(cf))
    assert vals.shape == (3,)
    h = hopf_point(cf, "b2", w, b2)
    others = [v for v in vals if abs(v.imag - w) > 0.5 and abs(v.imag + w) > 0.5]
    assert len(others) == 1
    assert h.nonresonance.ok
    assert h.nonresonance.near_axis == ()
    assert abs(h.nonresonance.axis_clearance - abs(others[0].real)) < 1e-12


def test_direction_a2_converges_with_n():
    m = blowflies(MU, 25.0)
    h0 = find_hopf(make_system(m), "beta", 2.4, 25.0)
    errs = []
    for n in (6, 8, 10, 12, 15):
        hn = find_hopf(make_system(m, n), "beta", 2.4, 25.0)
        errs.append(abs(hn.a2 - h0.a2))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8


def test_n15_matches_analytic_point():
    for mu in (2.0, 3.0, 5.0):
        m = blowflies(mu, 25.0)
        h0 = find_hopf(make_system(m), "beta", 2.4, 25.0)
        h15 = find_hopf(make_system(m, 15), "beta", 2.4, 25.0)
        assert abs(h15.alpha - h0.alpha) < 1e-8
        assert abs(h15.omega - h0.omega) < 1e-8
        assert abs(h15.a2 - h0.a2) < 1e-8


def test_nonresonance_margins_along_arc():
    for wg in (1.8, 2.1, 2.4, 2.7, 3.0):
        m = boundary_blowflies(wg)
        for n in (5, 10, 15):
            h = find_hopf(make_system(m, n), "beta", wg, m.params["beta"])
            assert h.nonresonance.ok
            assert min(margin for _, margin in h.nonresonance.margins) > 0.1


def test_a2_parametrization_invariance():
    # the same family written with b2 as the bifurcation parameter: a2
    # transforms by the chain-rule factor db2/dbeta = -mu/beta
    m = blowflies(MU, 25.0)
    h_beta = find_hopf(make_system(m), "beta", 2.4, 25.0)

    def hint(params):
        return (1.0 - params["b2"] / params["mu"],)

    m_b2 = make_model(
        1, (0.0, 1.0), ("-mu*x0@0 + mu*exp(1 - b2/mu)*x0@1*exp(-x0@1)",),
        {"mu": MU, "b2": MU * (1.0 - math.log(25.0 / MU))}, hint_fn=hint,
    )
    h_b2 = find_hopf(make_system(m_b2), "b2", 2.4,
                     MU * (1.0 - math.log(25.0 / MU)))
    assert abs(h_b2.omega - h_beta.omega) < 1e-12
    assert abs(h_b2.c - h_beta.c) < 1e-12
    factor = -MU / h_beta.alpha
    assert abs(h_b2.a2 - h_beta.a2 * factor) < 1e-8


def test_trace_matches_parametric_boundary():
    w = 2.0
    b1s, b2s = boundary(w)
    m = linear_model(b1s, b2s)
    start = find_hopf(make_system(m), "b2", w, b2s + 0.05)
    curve = trace_hopf_curve(m, ("b1", "b2"), start, 0.05, max_points=31)
    assert curve.names == ("b1", "b2")
    assert curve.points.shape == (31, 3)
    assert curve.steps[0] == 0.0
    gaps = np.linalg.norm(np.diff(curve.points, axis=0), axis=1)
    assert np.allclose(curve.steps[1:], gaps, rtol=1e-12, atol=0)
    assert len(curve.diagnostics) == 31
    for b1, b2, omega in curve.points:
        pb1, pb2 = boundary(omega)
        assert abs(b1 - pb1) < 1e-8
        assert abs(b2 - pb2) < 1e-8
    for (_, _, omega), diag in zip(curve.points, curve.diagnostics):
        assert diag.residual < 1e-10 * (1.0 + omega)
        assert diag.simplicity > 0.0
    # omega moves continuously: each jump is bounded by the arclength gap
    assert np.all(np.abs(np.diff(curve.points[:, 2])) <= curve.steps[1:])


def test_trace_step_sign_flip_reverses():
    w = 2.0
    b1s, b2s = boundary(w)
    m = linear_model(b1s, b2s)
    start = find_hopf(make_system(m), "b2", w, b2s + 0.05)
    fwd = trace_hopf_curve(m, ("b1", "b2"), start, 0.05, max_points=31)
    rev = trace_hopf_curve(m, ("b1", "b2"), start, -0.05, max_points=31)
    assert np.array_equal(fwd.points, rev.points[::-1])
    assert np.allclose(fwd.steps[1:], rev.steps[1:][::-1], rtol=0, atol=0)


def test_trace_blowflies_against_analytic_chart():
    m = blowflies(MU, 25.0)
    start = find_hopf(make_system(m), "beta", 2.4, 25.0)
    curve = trace_hopf_curve(m, ("mu", "beta"), start, 0.5, max_points=101)
    mu = curve.points[:, 0]
    beta = curve.points[:, 1]
    assert mu.min() < 1.0 and mu.max() > 10.0
    sel = (mu >= 1.0) & (mu <= 10.0)
    assert sel.sum() > 20
    for mu_i, beta_i in zip(mu[sel], beta[sel]):
        w_i, beta_o = blowfly_oracle(mu_i)
        assert abs(beta_i - beta_o) / mu_i < 1e-6


def test_trace_blowflies_survives_overflowing_corrector():
    # from this start a corrector lands where exp overflows inside the
    # equilibrium Newton; that build counts as a failed step, not a crash
    mu0 = 4.251273284166452
    w0, beta0 = blowfly_oracle(mu0)
    m = blowflies(mu0, beta0)
    start = find_hopf(make_system(m, 10), "beta", w0, beta0)
    curve = trace_hopf_curve(m, ("mu", "beta"), start, 0.25, max_points=200, n=10)
    assert len(curve.points) == 199
    mu = curve.points[:, 0]
    assert mu.min() < 1.0 and mu.max() > 10.0
    for mu_i, beta_i in curve.points[(mu >= 1.0) & (mu <= 10.0), :2]:
        _, beta_o = blowfly_oracle(mu_i)
        assert abs(beta_i - beta_o) / mu_i < 1e-4


def test_curve_run_counters():
    # the overflowing build of the previous test is one failed corrector
    # iterate; every accepted point took its iterations plus one iterate
    mu0 = 4.251273284166452
    w0, beta0 = blowfly_oracle(mu0)
    m = blowflies(mu0, beta0)
    start = find_hopf(make_system(m, 10), "beta", w0, beta0)
    curve = trace_hopf_curve(m, ("mu", "beta"), start, 0.25, max_points=200, n=10)
    stats = curve.stats
    assert set(stats) == {"corrector_iterates", "halvings", "rebuilds", "newton_steps"}
    accepted = len(curve.points) - 1
    iterations = sum(d.iterations for d in curve.diagnostics)
    assert iterations + accepted < stats["corrector_iterates"]
    assert stats["rebuilds"] == stats["corrector_iterates"] + 1
    assert stats["halvings"] > 0
    assert 0 < stats["newton_steps"] <= 50 * stats["rebuilds"]

    # the linear family's equilibrium is its hint, and no step is refused
    b1s, b2s = boundary(2.0)
    lin = linear_model(b1s, b2s)
    start = find_hopf(make_system(lin), "b2", 2.0, b2s + 0.05)
    curve = trace_hopf_curve(lin, ("b1", "b2"), start, 0.05, max_points=31)
    assert curve.stats["newton_steps"] == curve.stats["halvings"] == 0
    assert sum(d.iterations for d in curve.diagnostics) + 30 == (
        curve.stats["corrector_iterates"])


def test_singular_corrector_matrix_halves_the_step(monkeypatch):
    # the first corrector iterate's Newton matrix gets a zero row, which
    # numpy's solve would refuse with LinAlgError; the shared guard raises
    # SingularityError first, and the trace retries with half the step
    b1s, b2s = boundary(2.0)
    lin = linear_model(b1s, b2s)
    start = find_hopf(make_system(lin), "b2", 2.0, b2s + 0.05)
    rows_at, calls = hopf._hopf_rows, []

    def degenerate(*args):
        f, rows, res, dl = rows_at(*args)
        calls.append(res)
        if len(calls) == 2:  # call 1 is the start point
            rows[1] = [0.0] * len(rows[1])
        return f, rows, res, dl

    monkeypatch.setattr(hopf, "_hopf_rows", degenerate)
    curve = trace_hopf_curve(lin, ("b1", "b2"), start, 0.05, max_points=31)
    assert curve.stats["halvings"] == 1
    assert len(curve.points) == 31
    assert all(d.residual < 1e-10 * (1.0 + w)
               for d, w in zip(curve.diagnostics, curve.points[:, 2]))


def fluidflow_omega(c):
    """Crossing frequency in (0, pi) of the fluid-flow Hopf locus
    k c^2/2 = omega^2, omega tan(omega/2) = 1/c; the left side increases
    from 0 at omega = 0 past 1/c by omega = 3 for every c > 0.03."""
    return brentq(lambda w: w * math.tan(0.5 * w) - 1.0 / c, 0.0, 3.0, xtol=1e-15)


def test_trace_fluidflow_single_branch():
    # with lambda = i omega in lambda^2 + (lambda/c)(1 + e^{-lambda})
    # + (k c^2/2) e^{-lambda} = 0, the critical locus is k c^2/2 = omega^2
    # with omega tan(omega/2) = 1/c; at c0 = 2, omega0 = 0.960189...
    c0 = 2.0
    w0 = fluidflow_omega(c0)
    assert abs(w0 - 0.960189) < 1e-6
    kstar = 2.0 * w0**2 / c0**2
    m = fluidflow(kstar, c0)
    start = hopf_point(make_system(m), "k", w0, kstar)
    curve = trace_hopf_curve(m, ("k", "c"), start, 0.1, max_points=41)
    k = curve.points[:, 0]
    c = curve.points[:, 1]
    w = curve.points[:, 2]
    dk = np.diff(k)
    assert len(k) == 41
    assert np.all(dk > 0) or np.all(dk < 0)
    assert np.max(np.abs(k * c * c / 2.0 - w * w)) < 1e-8
    assert np.max(np.abs(w * np.tan(w / 2.0) - 1.0 / c)) < 1e-8


def test_trace_stalls_at_corner():
    w = 2.0
    b1s, b2s = boundary(w)
    m = linear_model(b1s, b2s)
    start = find_hopf(make_system(m), "b2", w, b2s + 0.05)
    with pytest.raises(ContinuationError) as err:
        trace_hopf_curve(m, ("b1", "b2"), start, 0.1, max_points=4001)
    last = err.value.last_point
    assert abs(last[0] - 1.0) < 1e-6
    assert abs(last[1] + 1.0) < 1e-6
    assert 0.0 < last[2] < 1e-6
    payload = err.value.payload()
    assert payload["error"] == "continuation_stalled"
    assert payload["last_point"] == list(last)


def test_trace_input_validation():
    m = blowflies(MU, 25.0)
    start = find_hopf(make_system(m), "beta", 2.4, 25.0)
    with pytest.raises(ValueError):
        trace_hopf_curve(m, ("mu", "mu"), start, 0.5)
    with pytest.raises(UnknownSymbolError):
        trace_hopf_curve(m, ("mu", "nope"), start, 0.5)
    with pytest.raises(ValueError):
        trace_hopf_curve(m, ("mu", "beta"), start, 0.0)
    # an exact-problem start is not a root of the n=10 equations
    with pytest.raises(ConvergenceError):
        trace_hopf_curve(m, ("mu", "beta"), start, 0.5, n=10)


def test_convergence_study_decreases_to_floor():
    rows = convergence_study(
        blowflies(MU, 25.0), "beta", {"mu": MU}, list(range(4, 17)),
        reference="analytic",
    )
    assert [r.n for r in rows] == list(range(4, 17))
    for column in ("alpha_err", "omega_err", "a2_err"):
        vals = [getattr(r, column) for r in rows]
        for a, b in zip(vals, vals[1:]):
            if a >= 1e-10:
                assert b < a, column
        assert min(vals) < 1e-10
    sigmas = [r.sigma for r in rows]
    assert abs(sigmas[-1] - sigmas[-3]) < 1e-8
    assert all(r.simplicity > 1.0 for r in rows)
    assert all(r.nonres_margin > 0.1 for r in rows)
    assert all(r.failure is None for r in rows)


def test_convergence_study_finest_reference_zero_row():
    rows = convergence_study(
        blowflies(MU, 25.0), "beta", {"mu": MU}, [6, 10, 14],
        reference="finest",
    )
    last = rows[-1]
    assert last.n == 14
    assert last.alpha_err == 0.0
    assert last.omega_err == 0.0
    assert last.a2_err == 0.0
    assert rows[0].alpha_err > rows[1].alpha_err > 0.0


def test_convergence_study_records_failures_per_row():
    # the n=1 collocation pins the real part of its complex pair, so the
    # Newton search cannot cross and the row records the error code
    rows = convergence_study(
        blowflies(MU, 25.0), "beta", {"mu": MU}, [1, 8, 12],
        reference="analytic", omega_guess=2.4, alpha_guess=25.0,
    )
    assert rows[0].failure == "no_convergence"
    assert math.isnan(rows[0].alpha_err)
    assert math.isnan(rows[0].sigma)
    assert rows[1].failure is None and rows[2].failure is None
    assert rows[2].alpha_err < rows[1].alpha_err


def test_convergence_study_seeds_omega_from_spectrum():
    rows = convergence_study(
        blowflies(MU, 25.0), "beta", {"mu": MU}, [8, 12],
        reference="analytic",
    )
    assert all(r.failure is None for r in rows)
    assert rows[1].alpha_err < 1e-8


def test_convergence_study_validation():
    m = blowflies(MU, 25.0)
    with pytest.raises(ValueError):
        convergence_study(m, "beta", {"mu": MU}, [])
    with pytest.raises(ValueError):
        convergence_study(m, "beta", {"mu": MU}, [6], reference="best")
