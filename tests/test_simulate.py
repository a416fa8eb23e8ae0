import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chebdde.discretize import make_system, replicate, rhs
from chebdde.errors import (
    EvalDomainError,
    IntegrationError,
    NoJumpError,
    NotPeriodicError,
    PeriodEstimateError,
    UnknownSymbolError,
)
from chebdde.model import blowflies, fluidflow, make_model
from chebdde.simulate import (
    _A,
    _B,
    _E3,
    _E5,
    Trajectory,
    bracket_period_doubling,
    integrate,
    period_report,
    sample_history,
)


@functools.cache
def blowflies_run():
    """Shared attractor run at (mu, beta) = (7, 105), n = 20."""
    ps = make_system(blowflies(7.0, 105.0), 20)
    y0 = replicate(ps.equilibrium, 20)
    y0 += 0.2 * (1.0 + np.abs(y0))
    return ps, y0, integrate(ps, y0, 200.0, rel_tol=1e-7, abs_tol=1e-9)


def synthetic(x, t):
    return Trajectory(t, x[:, None], np.zeros_like(t))


def test_sample_history_constant():
    ps = make_system(blowflies(3.0, 25.0), 6)
    assert np.array_equal(sample_history(ps, lambda th: 1.3), np.full(7, 1.3))
    ps2 = make_system(fluidflow(12.0, 1.5), 4)
    s = sample_history(ps2, lambda th: np.array([0.2, 2.0]))
    assert np.array_equal(s, np.tile([0.2, 2.0], 5))


def test_sample_history_node_coordinates():
    ps = make_system(blowflies(3.0, 25.0), 8)
    assert np.array_equal(sample_history(ps, lambda th: th), ps.mesh.nodes)


def test_sample_history_critical_pair_samples():
    w = 2.3
    ps = make_system(blowflies(3.0, 25.0), 8)
    s = sample_history(ps, lambda th: np.cos(w * th))
    assert np.array_equal(s, np.cos(w * ps.mesh.nodes))


def test_sample_history_failure():
    ps = make_system(blowflies(3.0, 25.0), 5)
    with pytest.raises(EvalDomainError):
        sample_history(ps, lambda th: math.sqrt(th))  # negative nodes
    with pytest.raises(EvalDomainError):
        sample_history(ps, lambda th: math.inf)


def test_integrate_equilibrium_stays_put():
    ps = make_system(blowflies(3.0, 25.0), 10)
    y0 = replicate(ps.equilibrium, 10)
    traj = integrate(ps, y0, 100.0, rel_tol=1e-10, abs_tol=1e-12)
    assert np.max(np.abs(traj.states - y0)) < 1e-8


def test_integrate_matches_exponential_decay():
    m = make_model(1, (0.0, 1.0), ("-x0@0",), {}, equilibrium_hint=[0.0])
    ps = make_system(m, 6)
    traj = integrate(ps, sample_history(ps, lambda th: 1.0), 5.0,
                     rel_tol=1e-9, abs_tol=1e-12)
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) < 1e-10


def test_integrate_validation():
    ps = make_system(blowflies(3.0, 25.0), 4)
    y0 = replicate(ps.equilibrium, 4)
    with pytest.raises(ValueError):
        integrate(ps, y0, 10.0, rel_tol=1e-13)
    with pytest.raises(ValueError):
        integrate(ps, y0, 10.0, abs_tol=0.1)
    with pytest.raises(ValueError):
        integrate(ps, y0, 0.0)
    with pytest.raises(ValueError):
        integrate(ps, y0[:-1], 10.0)


def test_integrate_blowup_aborts_with_partial_trajectory():
    # x' = x^2 from x = 2 blows up at t = 1/2
    m = make_model(1, (0.0, 1.0), ("x0@0^2",), {}, equilibrium_hint=[0.0])
    ps = make_system(m, 4, equilibrium=[0.0])
    with pytest.raises(IntegrationError) as err:
        integrate(ps, replicate(np.array([2.0]), 4), 10.0)
    traj = err.value.trajectory
    assert traj is not None
    assert 0.49 < traj.times[-1] < 0.6
    assert np.all(np.isfinite(traj.states))
    assert err.value.payload()["error"] == "integration_failure"
    stats = traj.stats
    assert stats["accepted"] == len(traj.times) - 1
    assert stats["rejected"] >= 1  # the step that left the finite range
    assert stats["rhs_evals"] == (
        1 + 11 * (stats["accepted"] + stats["rejected"]) + stats["accepted"]
    )


@pytest.mark.parametrize("rate, t_end, collapses", [
    ("1e14", 1.0, True),  # stable steps near 6e-14, below the 1e-12 floor
    ("1", 1e-13, False),  # the end of the window shortened the one step
])
def test_step_underflow_only_on_collapse(rate, t_end, collapses):
    m = make_model(1, (0.0, 1.0), (f"-{rate}*x0@0",), {}, equilibrium_hint=[0.0])
    ps = make_system(m, 4, equilibrium=[0.0])
    y0 = replicate(np.array([1.0]), 4)
    if collapses:
        with pytest.raises(IntegrationError, match="step size underflow"):
            integrate(ps, y0, t_end)
    else:
        assert np.array_equal(integrate(ps, y0, t_end).times, [0.0, t_end])


def test_trajectory_fields_consistent():
    _, y0, traj = blowflies_run()
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(np.isfinite(traj.states))
    assert traj.times.shape[0] == traj.states.shape[0] == traj.errors.shape[0]
    assert traj.errors[0] == 0.0
    assert np.all(traj.errors <= 1.0)


def test_blowflies_attractor_bounded_oscillatory():
    _, _, traj = blowflies_run()
    tail = traj.states[traj.times >= 120.0, 0]
    assert 0.0 < tail.min() and tail.max() < 10.0
    assert tail.max() - tail.min() > 3.0


def test_estimate_period_synthetic_sine():
    T = 3.7
    t = np.linspace(0.0, 40 * T, 8000)
    p = period_report(synthetic(np.sin(2 * np.pi * t / T), t), 0, 0.1)["period"]
    assert abs(p - T) / T < 1e-6


def test_estimate_period_blowflies_doubled_orbit():
    # both humps of the doubled orbit cross the mean level, so the cycle
    # classifier must return the full period, not the bare crossing spacing
    _, _, traj = blowflies_run()
    rep = period_report(traj)
    assert abs(rep["period"] - 4.47) / 4.47 < 0.05
    assert rep["spread"] < 0.01
    assert rep["crossings"] >= 20


def test_estimate_period_quasiperiodic_flagged():
    t = np.linspace(0.0, 150.0, 8000)
    x = np.sin(2 * np.pi * t / 3.0) + 0.8 * np.sin(2.0 * t)
    with pytest.raises(NotPeriodicError):
        period_report(synthetic(x, t), 0, 0.1)


def test_estimate_period_not_oscillatory():
    t = np.linspace(0.0, 100.0, 2000)
    with pytest.raises(PeriodEstimateError):
        period_report(synthetic(t.copy(), t), 0, 0.1)  # monotone
    with pytest.raises(PeriodEstimateError):
        period_report(synthetic(np.full_like(t, 2.0), t), 0, 0.1)  # flat


def test_estimate_period_skip_validation():
    t = np.linspace(0.0, 10.0, 100)
    traj = synthetic(np.sin(t), t)
    with pytest.raises(ValueError):
        period_report(traj, 0, 1.0)
    with pytest.raises(ValueError):
        period_report(traj, 0, -0.1)


def test_period_same_in_every_component():
    _, _, traj = blowflies_run()
    periods = [period_report(traj, c)["period"] for c in (0, 7, 20)]
    for p in periods[1:]:
        assert abs(p - periods[0]) / periods[0] < 1e-3


def test_period_independent_of_tolerance():
    ps, y0, traj = blowflies_run()
    p1 = period_report(traj)["period"]
    p2 = period_report(integrate(ps, y0, 200.0, rel_tol=5e-8, abs_tol=5e-10))["period"]
    assert abs(p1 - p2) / p1 < 1e-3


def test_transport_relaxes_to_head_value():
    # rhs 0 pins y_0; the differentiation rows pull the tail to the constant
    m = make_model(1, (0.0, 1.0), ("0",), {}, equilibrium_hint=[0.7])
    ps = make_system(m, 8, equilibrium=[0.7])
    y0 = sample_history(ps, lambda th: 0.7 + th * np.sin(3.0 * th))
    traj = integrate(ps, y0, 50.0, rel_tol=1e-10, abs_tol=1e-12)
    assert np.array_equal(traj.states[:, 0], np.full(len(traj.times), y0[0]))
    assert np.max(np.abs(traj.states[-1] - y0[0])) < 1e-8


def fluidflow_omega(c):
    """Crossing frequency in (0, pi) of the fluid-flow Hopf locus
    k c^2/2 = omega^2, omega tan(omega/2) = 1/c; the left side increases
    from 0 at omega = 0 past 1/c by omega = 3 for every c > 0.03."""
    return brentq(lambda w: w * math.tan(0.5 * w) - 1.0 / c, 0.0, 3.0, xtol=1e-15)


def test_fluidflow_equilibrium_attracts_at_unit_coupling():
    # at c = 1.5 the equilibrium is stable for k c^2/2 < omega*^2; k = 0.5
    # gives 0.5625 < 1.1975, so generic kicks decay and no period exists
    k, c = 0.5, 1.5
    assert k * c * c / 2.0 < fluidflow_omega(c) ** 2
    ps = make_system(fluidflow(k, c), 20)
    y0 = replicate(ps.equilibrium, 20)
    y0 += 0.5 * (1.0 + np.abs(y0))
    traj = integrate(ps, y0, 200.0, rel_tol=1e-7, abs_tol=1e-9)
    assert np.max(np.abs(traj.states[-1] - replicate(ps.equilibrium, 20))) < 1e-4
    with pytest.raises(PeriodEstimateError):
        period_report(traj)


def test_fluidflow_band_orbit():
    # just past the Hopf locus (k = 1.05 k*, k* = 2 omega*^2/c^2) the
    # equilibrium sheds a small stable orbit of period near 2 pi / omega*
    c = 1.5
    w_star = fluidflow_omega(c)
    k = 1.05 * 2.0 * w_star**2 / c**2
    ps = make_system(fluidflow(k, c), 20)
    y0 = replicate(np.array([0.2, 2.0]), 20)
    traj = integrate(ps, y0, 300.0, rel_tol=1e-7, abs_tol=1e-9)
    rep = period_report(traj)
    assert abs(rep["period"] - 2.0 * math.pi / w_star) < 0.02 * 2.0 * math.pi / w_star
    assert rep["spread"] < 1e-3


def test_bracket_period_doubling_blowflies():
    lo, hi = bracket_period_doubling(
        blowflies(7.0, 100.0), "beta", (90.0, 110.0), 20, tol=2.0
    )
    assert hi - lo <= 2.0
    assert lo < 98.22 < hi


def test_bracket_no_jump():
    with pytest.raises(NoJumpError):
        bracket_period_doubling(
            blowflies(7.0, 100.0), "beta", (60.0, 70.0), 20, tol=2.0
        )


def test_bracket_validation():
    m = blowflies(7.0, 100.0)
    with pytest.raises(ValueError):
        bracket_period_doubling(m, "beta", (95.0, 95.0), 20)
    with pytest.raises(UnknownSymbolError):
        bracket_period_doubling(m, "gamma", (90.0, 110.0), 20)
    with pytest.raises(ValueError):
        bracket_period_doubling(m, "beta", (90.0, 110.0), 20, tol=0.0)


def reference_integrate(ps, y0, t_end, rel_tol=1e-6, abs_tol=1e-9):
    """The stepper written plainly: every stage, and the derivative at each
    accepted point, is a call of rhs. A stage point and the new point are
    one product of the coefficients (1 | h a_i), resp. (1 | h b), with the
    rows [y; k], the arithmetic of integrate's fused stages."""
    y = np.asarray(y0, dtype=float).copy()
    size = y.shape[0]
    times, states, errors = [0.0], [y.copy()], [0.0]
    f0 = rhs(ps, y)
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-8 and d0 > 1e-8 else 1e-3
    h = float(min(h, 0.1, t_end))
    t = 0.0
    k = np.empty((12, size))
    k[0] = f0
    retried = False
    while t < t_end:
        h = min(h, t_end - t)
        for i in range(1, 12):
            k[i] = rhs(ps, np.r_[1.0, h * _A[i]].dot(np.vstack([y, k[:i]])))
        y_new = np.r_[1.0, h * _B].dot(np.vstack([y, k]))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        # both error estimates from one product, as in integrate: BLAS's
        # matrix product and its vector product round differently
        e5, e3 = np.vstack([_E5, _E3]).dot(k) / scale
        n5, n3 = e5.dot(e5), e3.dot(e3)
        blend = n5 + 0.01 * n3
        err = h * n5 / math.sqrt(blend * size) if blend > 0.0 else 0.0
        factor = min(10.0, max(0.2, 0.9 * err**-0.125)) if err > 0.0 else 10.0
        if err <= 1.0:
            t += h
            y = y_new
            k[0] = rhs(ps, y)
            times.append(t)
            states.append(y)
            errors.append(err)
            factor = min(1.0, factor) if retried else factor
            retried = False
        else:
            retried = True
        h *= factor
    return np.array(times), np.array(states), np.array(errors)


def three_delay_model():
    return make_model(1, (0.0, 0.4, 1.0), ("-2*x0@0 + 3*x0@2*exp(-x0@1)",), {},
                      equilibrium_hint=[1.0])


def two_component_three_delay_model():
    # both components read the last lag row of both components, the row the
    # fused stage writes the head over
    return make_model(2, (0.0, 0.4, 1.0),
                      ("-x0@0 + 2*x1@2*exp(-x0@2)", "-x1@1 + sin(x0@2) - 0.1*x1@2^2"),
                      {}, equilibrium_hint=[0.5, 0.5])


@pytest.mark.parametrize(
    "case",
    [
        (lambda: blowflies(7.0, 105.0), 20, 2.0, 20.0),
        (lambda: fluidflow(1.5, 1.5), 8, np.array([0.3, 2.2]), 30.0),
        (three_delay_model, 12, 0.7, 20.0),
        (two_component_three_delay_model, 10, np.array([0.4, 0.9]), 20.0),
    ],
    ids=["blowflies", "fluidflow", "three_delays", "d2_three_delays"],
)
def test_in_place_stages_match_rhs_per_stage_bit_for_bit(case):
    make, n, value, t_end = case
    ps = make_system(make(), n)
    y0 = sample_history(ps, lambda th: value + 0.3 * np.sin(3.0 * th))
    traj = integrate(ps, y0, t_end, rel_tol=1e-7)
    times, states, errors = reference_integrate(ps, y0, t_end, rel_tol=1e-7)
    assert len(times) > 100
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.errors, errors)


def test_domain_error_inside_a_stage():
    # x' = -1 from x = 0.5 reaches log's domain boundary at t = 0.5; the
    # first stage at t = 0 is fine, so a later stage trips the guard
    m = make_model(1, (0.0, 1.0), ("-1 + 0*log(x0@0)",), {}, equilibrium_hint=[1.0])
    ps = make_system(m, 4, equilibrium=[1.0])
    with pytest.raises(EvalDomainError) as err:
        integrate(ps, sample_history(ps, lambda th: 0.5), 2.0)
    assert str(err.value) == "math domain error in 'model rhs at node 0'"


def test_time_stepping_never_solves_for_an_equilibrium(monkeypatch):
    # x' = -1 has no equilibrium, so a Newton solve could only fail; the
    # integration reaches log's domain boundary instead
    m = make_model(1, (0.0, 1.0), ("-1 + 0*log(x0@0)",), {}, equilibrium_hint=[1.0])

    def refuse(x, params):
        raise AssertionError("the equilibrium Newton ran")

    monkeypatch.setattr(m.derivs, "first", refuse)
    ps = make_system(m, 4)
    with pytest.raises(EvalDomainError) as err:
        integrate(ps, sample_history(ps, lambda th: 0.5), 2.0)
    assert str(err.value) == "math domain error in 'model rhs at node 0'"


def test_run_counters_invariants():
    _, _, traj = blowflies_run()
    stats = traj.stats
    # the counts of the criterion-7 run, unchanged by the in-place stages
    assert (stats["accepted"], stats["rejected"]) == (5758, 766)
    assert stats["accepted"] == len(traj.times) - 1
    assert stats["rhs_evals"] == (
        1 + 11 * (stats["accepted"] + stats["rejected"]) + stats["accepted"]
    )
    steps = np.diff(traj.times)
    assert stats["h_min"] == steps.min() and stats["h_max"] == steps.max()
    assert 0.0 < stats["h_min"] <= stats["h_max"]


@pytest.mark.parametrize("call", [
    lambda ps: integrate(ps, np.ones(1), 1.0),
    lambda ps: sample_history(ps, lambda th: 1.0),
], ids=["integrate", "sample_history"])
def test_degree_only_operations_refuse_the_delay_equation(call):
    with pytest.raises(ValueError, match="needs a collocation degree"):
        call(make_system(blowflies(3.0, 25.0)))


def test_tableau_has_order_eight():
    # the stability function R(z) = 1 + z b'(I - zA)^{-1} 1 matches e^z to
    # O(z^9); below z = 0.2 the gap sinks under double rounding, so halve
    # from 0.4 to 0.2
    a = np.zeros((12, 12))
    for i, row in enumerate(_A):
        a[i, :i] = row

    def gap(z):
        stages = np.linalg.solve(np.eye(12) - z * a, np.ones(12))
        return 1.0 + z * _B.dot(stages) - math.exp(z)

    assert 8.5 < math.log2(gap(0.4) / gap(0.2)) < 9.5
    # the Taylor coefficients b' A^{j-1} 1 of R are 1/j! up to j = 8, not at 9
    coeffs, v = [], np.ones(12)
    for _ in range(9):
        coeffs.append(_B.dot(v))
        v = a.dot(v)
    exact = [1.0 / math.factorial(j) for j in range(1, 10)]
    assert np.allclose(coeffs[:8], exact[:8], rtol=1e-13, atol=0.0)
    assert abs(coeffs[8] - exact[8]) > 1e-3 * exact[8]
    # both error estimates vanish on a constant derivative
    assert abs(_E5.sum()) < 1e-15 and abs(_E3.sum()) < 1e-15


def test_first_step_matches_scipy_dop853():
    # tests-only use of scipy.integrate: one DOP853 step of the same size
    from scipy.integrate._ivp import dop853_coefficients as dop
    from scipy.integrate._ivp.rk import rk_step

    ps = make_system(blowflies(7.0, 105.0), 20)
    y0 = sample_history(ps, lambda th: 2.0 + 0.3 * np.sin(3.0 * th))
    traj = integrate(ps, y0, 1.0, rel_tol=1e-7)
    h = traj.times[1]
    k = np.empty((dop.N_STAGES + 1, len(y0)))
    want, _ = rk_step(lambda t, y: rhs(ps, y), 0.0, y0, rhs(ps, y0), h,
                      dop.A[: dop.N_STAGES, : dop.N_STAGES], dop.B,
                      dop.C[: dop.N_STAGES], k)
    assert np.max(np.abs(traj.states[1] - want)) <= 1e-14 * np.max(np.abs(want))


def test_benchmark_end_state_beats_the_dp5_error():
    # the benchmark's problem (blowflies at n = 20, history const:2, T = 200,
    # rel_tol 1e-7) against scipy's DOP853 at 1e-11; the Dormand-Prince 5(4)
    # stepper this one replaced ended 1.8e-5 from it
    from scipy.integrate import solve_ivp

    ps = make_system(blowflies(7.0, 105.0), 20)
    y0 = sample_history(ps, lambda th: 2.0)
    traj = integrate(ps, y0, 200.0, rel_tol=1e-7, abs_tol=1e-9)
    ref = solve_ivp(lambda t, y: rhs(ps, y), (0.0, 200.0), y0, method="DOP853",
                    rtol=1e-11, atol=1e-11)
    assert ref.success
    assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 1.8e-5


def test_period_report_independent_of_sample_density():
    # a doubled orbit with sharp humps: the sampled hump maxima of the coarse
    # grid scatter by more than the 2% signature tolerance, the refined peaks
    # do not, so both grids find the two-hump cycle
    T = 4.47
    t = np.linspace(0.0, 150.37, 4001)
    x = np.exp(3.0 * np.sin(4 * np.pi * t / T)) + 0.3 * math.e**3 * np.sin(
        2 * np.pi * t / T + 0.4
    )
    fine = period_report(synthetic(x, t), 0, 0.1)
    coarse = period_report(synthetic(x[::3], t[::3]), 0, 0.1)
    assert fine["crossings"] == coarse["crossings"]
    assert abs(fine["period"] - T) < 1e-6 * T
    assert abs(coarse["period"] - fine["period"]) < 1e-6 * fine["period"]
