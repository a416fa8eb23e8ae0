import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdde import analytic
from chebdde.analytic import (
    admissible_omegas,
    boundary_points,
    c0_blowfly,
    cn_blowfly,
    dde_boundary,
    lag_solve_last,
    ps_boundary,
    to_mu_beta,
)
from chebdde.cheb_mesh import diff_matrix, make_mesh
from chebdde.discretize import charfn_dalpha, charfn_dlambda, charfn_eval, make_system
from chebdde.errors import SingularityError
from chebdde.model import blowflies, fluidflow, make_model
from _reference import lambda_prime_n2, lambda_prime_n2_re

MU, BETA = 3.0, 30.0
B1 = -MU
B2 = MU * (1.0 - math.log(BETA / MU))


def scalar_linear(b1, b2):
    return make_model(1, (0.0, 1.0), ("b1*x0@0 + b2*x0@1",), {"b1": b1, "b2": b2})


def dense_lag_solve_last(n, lam, power=1):
    """Reference for lag_solve_last: one dense solve of D - lambda I per shift
    and power, with the same scalar-or-array interface."""
    diff = diff_matrix(make_mesh(n))
    lam = np.asarray(lam, dtype=complex)
    out = []
    for s in lam.ravel():
        vec = -diff.d0
        for _ in range(power):
            vec = np.linalg.solve(diff.D - s * np.eye(n), vec)
        out.append(vec[-1])
    out = np.array(out)
    return complex(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)


def per_point_poles(lo, hi, steps, n):
    """Sign changes of Im zeta_n on [lo, hi] from scalar dense solves: a scan
    of max(8 steps, 800) points, then one 60-step bisection per bracket."""
    def im_zeta(w):
        return dense_lag_solve_last(n, 1j * w).imag

    scan = np.linspace(lo, hi, max(steps * 8, 800))
    vals = [im_zeta(w) for w in scan]
    poles = []
    for a, b, fa, fb in zip(scan, scan[1:], vals, vals[1:]):
        if fa == 0.0 or (fa < 0) != (fb < 0):
            x, y = a, b
            for _ in range(60):
                m = 0.5 * (x + y)
                if (im_zeta(m) < 0) == (fa < 0):
                    x = m
                else:
                    y = m
            poles.append(0.5 * (x + y))
    return poles


def per_point_omegas(lo, hi, steps, n, margin=1e-3):
    """The per-point form of admissible_omegas for a degree n: the poles of
    per_point_poles, then one test per grid point. Returns the kept grid and
    the located poles."""
    poles = per_point_poles(lo, hi, steps, n)
    keep = []
    for w in np.linspace(lo, hi, steps):
        if any(abs(w - s) <= margin for s in poles):
            continue
        zn = dense_lag_solve_last(n, 1j * w)
        if abs(zn.imag) < 1e-13 * max(1.0, abs(zn)) or -w * zn.real / zn.imag >= 0.0:
            continue
        keep.append(w)
    return np.array(keep), poles


def test_delta0_blowflies():
    cf = make_system(blowflies(MU, BETA))
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-4, 4))
        want = lam - B1 - B2 * cmath.exp(-lam)
        assert abs(charfn_eval(cf, lam) - want) < 1e-13 * (1.0 + abs(want))
    assert abs(charfn_eval(cf, 0.0) - (-(B1 + B2))) < 1e-13


def test_delta0_dlambda():
    cf = make_system(blowflies(MU, BETA))
    lam = 0.4 - 1.9j
    want = 1.0 + B2 * cmath.exp(-lam)
    assert abs(charfn_dlambda(cf, lam) - want) < 1e-13
    h = 1e-6
    fd = (charfn_eval(cf, lam + h) - charfn_eval(cf, lam - h)) / (2 * h)
    assert abs(charfn_dlambda(cf, lam) - fd) < 1e-8


def test_delta0_dalpha():
    cf = make_system(blowflies(MU, BETA))
    lam = 0.2 + 1.1j
    # the delayed coefficient mu(1 - ln(beta/mu)) moves by -mu/beta per beta
    want = (MU / BETA) * cmath.exp(-lam)
    got = charfn_dalpha(cf, lam, "beta")
    assert abs(got - want) <= 1e-6 * (1.0 + abs(want))


def test_delta0_fluidflow_matrix():
    k, c = 1.5, 1.5
    cf = make_system(fluidflow(k, c))
    val = charfn_eval(cf, 0.5j)
    # df/dw(t) = df/dw(t-1) = -1/c, df/dq(t-1) = -k c^2/2 at (c, 2/(k c^2))
    c0 = np.array([[-1.0 / c, 0.0], [1.0, 0.0]])
    c1 = np.array([[-1.0 / c, -k * c * c / 2.0], [0.0, 0.0]])
    want = 0.5j * np.eye(2) - c0 - c1 * cmath.exp(-0.5j)
    assert np.max(np.abs(val - want)) < 1e-12


def test_dde_boundary_examples():
    b1, b2 = dde_boundary(math.pi / 2)
    assert abs(b1) < 1e-15 and abs(b2 + math.pi / 2) < 1e-15
    b1, b2 = dde_boundary(2 * math.pi / 3)
    assert abs(b1 + 2 * math.pi / (3 * math.sqrt(3.0))) < 1e-14
    assert abs(b2 + 4 * math.pi / (3 * math.sqrt(3.0))) < 1e-14


def test_dde_boundary_small_omega():
    b1, b2 = dde_boundary(1e-6)
    assert abs(b1 - 1.0) < 1e-9 and abs(b2 + 1.0) < 1e-9
    # series and direct formula agree across the switch at 1e-4
    lo = dde_boundary(9.9e-5)
    hi = dde_boundary(1.01e-4)
    assert abs(lo[0] - hi[0]) < 1e-8 and abs(lo[1] - hi[1]) < 1e-8


def test_dde_boundary_singularities():
    for w in (math.pi, 2 * math.pi, -math.pi):
        with pytest.raises(SingularityError):
            dde_boundary(w)


def test_dde_boundary_closes_delta0():
    for w in (0.5, 2.0, 2.9):
        b1, b2 = dde_boundary(w)
        cf = make_system(scalar_linear(b1, b2), equilibrium=[0.0])
        assert abs(charfn_eval(cf, 1j * w)) < 1e-14 * (1.0 + abs(w))


def test_ps_boundary_n2_closed_form():
    for w in np.linspace(0.2, 3.9, 20):
        b1, b2 = ps_boundary(2, w)
        w2 = w * w
        cb1 = (7.0 * w2 - 16.0) / (w2 - 16.0)
        cb2 = w2 - 4.0 + 3.0 * (7.0 * w2 - 16.0) / (w2 - 16.0)
        assert abs(b1 - cb1) <= 1e-12 * (1.0 + abs(cb1))
        assert abs(b2 - cb2) <= 1e-12 * (1.0 + abs(cb2))


def test_ps_boundary_n3_closed_form():
    for w in np.linspace(0.2, 2.9, 20):
        den = 9.0 * w**4 - 1088.0 * w**2 + 9216.0
        cb1 = 17.0 + 2048.0 * (7.0 * w**2 - 72.0) / den
        cb2 = -(9.0 * w**6 - 23.0 * w**4 + 448.0 * w**2 + 9216.0) / den
        b1, b2 = ps_boundary(3, w)
        assert abs(b1 - cb1) <= 1e-12 * (1.0 + abs(cb1))
        assert abs(b2 - cb2) <= 1e-12 * (1.0 + abs(cb2))


def test_ps_boundary_small_omega_limit():
    for n in (2, 5, 9, 20):
        b1, b2 = ps_boundary(n, 1e-6)
        assert abs(b1 - 1.0) < 1e-4 and abs(b2 + 1.0) < 1e-4


def test_ps_boundary_singular_omega():
    with pytest.raises(SingularityError):
        ps_boundary(2, 4.0)


def test_ps_boundary_closes_charfn():
    for n in (2, 3, 6, 10):
        for w in (0.7, 1.9, 2.8):
            b1, b2 = ps_boundary(n, w)
            cf = make_system(scalar_linear(b1, b2), n, equilibrium=[0.0])
            assert abs(charfn_eval(cf, 1j * w)) < 1e-12 * (1.0 + abs(w) + abs(b2))


def test_ps_boundary_converges_to_dde():
    sup = {}
    for n in (5, 10):
        worst = 0.0
        for w in np.linspace(0.1, 3.0, 120):
            d = dde_boundary(w)
            p = ps_boundary(n, w)
            worst = max(worst, abs(d[0] - p[0]), abs(d[1] - p[1]))
        sup[n] = worst
    assert sup[10] < 1e-6
    assert sup[10] < sup[5]


def test_transcritical_line():
    for n in (2, 5, 11):
        cf = make_system(scalar_linear(0.8, -0.8), n, equilibrium=[0.0])
        assert abs(charfn_eval(cf, 0.0)) < 1e-13
        cf2 = make_system(scalar_linear(0.8, -0.5), n, equilibrium=[0.0])
        assert abs(charfn_eval(cf2, 0.0) - (-0.3)) < 1e-13


def test_to_mu_beta():
    mu, _ = to_mu_beta(-3.0, 1.0)
    assert mu == 3.0
    b1, b2 = -3.0, 3.0 * (1.0 - math.log(40.0 / 3.0))
    mu, beta = to_mu_beta(b1, b2)
    assert abs(mu - 3.0) < 1e-13 and abs(beta - 40.0) < 1e-13 * 40.0
    with pytest.raises(ValueError):
        to_mu_beta(1.0, -1.0)
    with pytest.raises(SingularityError):
        to_mu_beta(-1e-300, -math.pi / 2)  # beta out of float range


def test_c0_negative_along_boundary():
    grid = np.linspace(math.pi / 2 + 1e-3, math.pi - 1e-3, 50)
    for w in grid:
        b1, b2 = dde_boundary(w)
        assert abs(1.0 + b2 * cmath.exp(-1j * w)) > 1e-3
        assert c0_blowfly(w).real < 0.0


def test_c0_frozen_value():
    # regression anchor at omega = 2.2 (computed once, cross-checked against
    # the general normal-form machinery in the bifurcation tests)
    c = c0_blowfly(2.2)
    assert abs(c - (-0.17203195295854026 - 0.0530452301128744j)) < 1e-12


def test_cn_negative_on_admissible_grid():
    for n in (2, 3):
        ws = admissible_omegas(math.pi / 2 + 0.01, math.pi - 0.01, 60, n=n)
        assert len(ws) > 40
        for w in ws:
            assert cn_blowfly(n, w).real < 0.0


def test_cn_converges_to_c0():
    c0 = c0_blowfly(2.2)
    diffs = [abs(cn_blowfly(n, 2.2) - c0) for n in (4, 6, 8, 10)]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-7


def test_lambda_prime_positive_crossing():
    for w in np.concatenate([np.linspace(-3.9, -0.1, 25), np.linspace(0.1, 3.9, 25)]):
        assert lambda_prime_n2_re(w) > 0.0
        assert lambda_prime_n2(w).real > 0.0


def test_lambda_prime_self_consistency():
    assert abs(lambda_prime_n2(1.7).real - lambda_prime_n2_re(1.7)) < 1e-13


def test_lambda_prime_domain():
    with pytest.raises(ValueError):
        lambda_prime_n2(0.0)
    with pytest.raises(ValueError):
        lambda_prime_n2(4.5)
    with pytest.raises(ValueError):
        lambda_prime_n2_re(-4.0)


def test_admissible_omegas_excludes_singularity():
    # the n=3 curve has a pole just above 3.02; the grid must stop before it
    ws = admissible_omegas(math.pi / 2 + 0.01, math.pi - 0.01, 60, n=3)
    assert ws.max() < 3.028
    for w in ws:
        pt = boundary_points([w], n=3)[0]
        assert math.isfinite(pt.b1) and math.isfinite(pt.re_c)
        assert pt.mu > 0.0


def test_boundary_point_exact_curve():
    pt = boundary_points([2.0])[0]
    b1, b2 = dde_boundary(2.0)
    assert pt.b1 == b1 and pt.b2 == b2
    assert abs(pt.mu + b1) < 1e-15
    assert pt.re_c == c0_blowfly(2.0).real


@settings(max_examples=80)
@given(
    n=st.integers(1, 48),
    power=st.sampled_from([1, 2]),
    shifts=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.floats(-30.0, 30.0)), min_size=1, max_size=12
    ),
)
def test_lag_solve_last_matches_dense_solves(n, power, shifts):
    lam = np.array([complex(sigma, omega) for sigma, omega in shifts])
    batch = lag_solve_last(n, lam, power)
    want = dense_lag_solve_last(n, lam, power)
    assert np.all(np.abs(batch - want) <= 1e-11 * np.abs(want))
    for got, shift in zip(batch, lam):
        single = lag_solve_last(n, shift, power)
        assert isinstance(single, complex)
        assert abs(got - single) <= 1e-13 * abs(single)
    # D is real: zeta(-i omega) = conj zeta(i omega)
    up = lag_solve_last(n, 1j * lam.imag, power)
    down = lag_solve_last(n, -1j * lam.imag, power)
    assert np.all(np.abs(down - up.conj()) <= 1e-13 * np.abs(up))


def test_lag_solve_last_keeps_shape_across_chunks():
    # 2 _CHUNK + 88 shifts span three sweeps of the batched back substitution
    size = 2 * analytic._CHUNK + 88
    lam = np.linspace(0.0, 2.0, size) + 1j * np.linspace(-30.0, 30.0, size)
    lam = lam.reshape(size // 8, 8)
    got = lag_solve_last(12, lam, 2)
    assert got.shape == (size // 8, 8)
    want = np.array([[lag_solve_last(12, x, 2) for x in row] for row in lam])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_batched_boundary_names_first_singular_omega():
    # the n=2 curve has its pole at omega = 4
    b1, b2 = ps_boundary(2, np.array([1.0, 2.0]))
    assert b1.shape == b2.shape == (2,)
    assert (b1[1], b2[1]) == ps_boundary(2, 2.0)
    with pytest.raises(SingularityError, match=r"omega=4\.0 "):
        ps_boundary(2, np.array([1.0, 4.0, 5.0, 4.0]))
    with pytest.raises(SingularityError, match=r"omega=4\.0 "):
        cn_blowfly(2, np.array([2.0, 4.0]))


@pytest.mark.parametrize("n, sizes", [(40, (300, 1000, 1001, 1234, 8000)), (200, (300, 1001, 1234))])
def test_lag_solve_last_bits_do_not_depend_on_sweep_width(n, sizes, monkeypatch):
    # every shift keeps the bits it gets from sweeps of 256 shifts, also when
    # a threaded BLAS splits the wider sweeps' columns between threads
    lams = [1j * np.linspace(1.6, 3.1, size) for size in sizes]
    got = [lag_solve_last(n, lam, 2) for lam in lams]
    monkeypatch.setattr(analytic, "_CHUNK", 256)
    for lam, value in zip(lams, got):
        assert np.array_equal(lag_solve_last(n, lam, 2), value)


def old_order_chart(n, w):
    """Reference (b1, b2, c) of the degree-n chart: one public solve per shift
    set and power, including -i w, assembled in cn_blowfly's order."""
    w = np.asarray(w, dtype=float)
    b1, b2 = ps_boundary(n, w)
    d2, d3 = b1 - b2, -2.0 * b1 + b2
    z_plus = lag_solve_last(n, 1j * w)
    z_minus = lag_solve_last(n, -1j * w)
    z_sq = lag_solve_last(n, 1j * w, power=2)
    b1n = z_plus * z_plus * z_minus / (1.0 - b2 * z_sq)
    z2 = lag_solve_last(n, 2j * w)
    b2n = z2 / (2j * w - b1 - b2 * z2) * b1n
    return b1, b2, 0.5 * d3 * b1n - d2 * d2 / (b1 + b2) * b1n + 0.5 * d2 * d2 * b2n


@pytest.mark.parametrize("n, lo, hi", [(2, 1.6, 3.9), (3, 1.6, 3.0), (12, 1.6, 3.1), (40, 1.58, 3.1)])
def test_one_pass_chart_equals_the_separate_solves(n, lo, hi):
    w = np.linspace(lo, hi, 1000)
    b1, b2, c = old_order_chart(n, w)
    assert np.array_equal(cn_blowfly(n, w), c)
    assert all(np.array_equal(x, y) for x, y in zip(ps_boundary(n, w), (b1, b2)))
    points = boundary_points(w, n)
    assert [p.b1 for p in points] == list(b1) and [p.b2 for p in points] == list(b2)
    assert [p.re_c for p in points] == list(c.real)
    for x in w[::97]:
        assert cn_blowfly(n, x) == old_order_chart(n, x)[2]
        assert ps_boundary(n, x) == old_order_chart(n, x)[:2]


def test_one_pass_chart_names_the_n2_pole():
    # the n=2 curve has its pole at omega = 4, inside this window
    w = np.linspace(3.0, 5.0, 201)
    with pytest.raises(SingularityError) as old:
        old_order_chart(2, w)
    for chart in (cn_blowfly, ps_boundary, lambda n, x: boundary_points(x, n)):
        with pytest.raises(SingularityError, match=r"omega=4\.0 ") as new:
            chart(2, w)
        assert str(new.value) == str(old.value)


def math_dde_boundary(w):
    """Reference for dde_boundary: the scalar closed form with the math module."""
    if abs(w) < 1e-4:
        w2 = w * w
        return (1.0 - w2 / 3.0 - w2 * w2 / 45.0, -(1.0 + w2 / 6.0 + 7.0 * w2 * w2 / 360.0))
    s = math.sin(w)
    if abs(s) < 1e-9:
        raise SingularityError(f"boundary is singular at omega={w} (multiple of pi)")
    return (w * math.cos(w) / s, -w / s)


def test_array_dde_boundary_equals_scalar_calls():
    rng = np.random.default_rng(5)
    w = np.concatenate([rng.uniform(-9.0, 9.0, 2000), rng.uniform(-2e-4, 2e-4, 200),
                        [0.0, 1e-4, -1e-4, 9.99e-5, 1.6, 3.1]])
    b1, b2 = dde_boundary(w)
    for x, y1, y2 in zip(w, b1, b2):
        assert dde_boundary(x) == math_dde_boundary(x) == (y1, y2)
    got = dde_boundary(w[:2200].reshape(11, 200))
    assert np.array_equal(got[1], b2[:2200].reshape(11, 200))
    bad = np.array([2.0, 0.0, 2 * math.pi, 1e-5, math.pi, 3 * math.pi])
    with pytest.raises(SingularityError) as err:
        dde_boundary(bad)
    with pytest.raises(SingularityError) as want:
        math_dde_boundary(2 * math.pi)
    assert str(err.value) == str(want.value)


def test_exact_boundary_points_equal_scalar_calls():
    w = admissible_omegas(1.58, 3.1, 1000)
    points = boundary_points(w)
    assert [(p.b1, p.b2) for p in points] == [math_dde_boundary(x) for x in w]
    assert [p.re_c for p in points] == [c0_blowfly(x).real for x in w]


def test_exact_boundary_points_name_the_first_pole_then_the_first_b1():
    # as on the degree-n curve, each check runs over every omega in turn
    with pytest.raises(SingularityError, match=r"omega=3\.14159"):
        boundary_points([2.0, 1.0, math.pi])
    with pytest.raises(ValueError, match=r"b1=0\.642"):
        boundary_points([2.0, 1.0, 1.5])


def test_boundary_points_solves_each_shift_set_once(monkeypatch):
    sweeps = []
    solve = analytic._back_substitute

    def counted(t, blocks, shifts, rhs):
        sweeps.append(shifts.size)
        return solve(t, blocks, shifts, rhs)

    w = np.linspace(1.6, 3.1, 1000)
    monkeypatch.setattr(analytic, "_back_substitute", counted)
    lag_solve_last(40, 1j * w)
    per_pass = len(sweeps)
    assert max(sweeps) == analytic._CHUNK > 256 and sum(sweeps) == 1000
    sweeps.clear()
    boundary_points(w, 40)
    # i w to powers 1 and 2, then 2 i w: three passes
    assert len(sweeps) == 3 * per_pass and sum(sweeps) == 3000
    sweeps.clear()
    admissible_omegas(1.6, 3.1, 1000, n=40)
    # the poles come from one eigenproblem: the grid is the only pass
    assert len(sweeps) == per_pass and sum(sweeps) == 1000


def test_admissible_omegas_needs_an_increasing_window():
    # a reversed window would leave the k pi exclusion empty and keep 3.14100
    for n in (None, 40):
        for lo, hi in ((3.3, 3.0), (2.0, 2.0)):
            with pytest.raises(ValueError, match="lo < hi"):
                admissible_omegas(lo, hi, 301, n)
    assert np.all(np.abs(admissible_omegas(3.0, 3.3, 301) - math.pi) > 1e-3)


def test_chart_n40_matches_dense_solves(monkeypatch):
    def chart():
        omegas = admissible_omegas(1.6, 3.1, 200, n=40)
        return omegas, boundary_points(omegas, 40)

    omegas, points = chart()
    monkeypatch.setattr(analytic, "lag_solve_last", dense_lag_solve_last)
    want_omegas, want_points = chart()
    assert len(omegas) > 150
    assert np.array_equal(omegas, want_omegas)
    for got, want in zip(points, want_points):
        assert got.omega == want.omega
        for field in ("b1", "b2", "mu", "beta", "re_c"):
            ref = getattr(want, field)
            assert abs(getattr(got, field) - ref) <= 1e-10 * abs(ref)


def test_admissible_omegas_across_n3_pole_match_per_point_scan():
    want, poles = per_point_omegas(2.9, 3.2, 300, 3)
    assert len(poles) == 1 and abs(poles[0] - 3.02) < 0.01
    got = admissible_omegas(2.9, 3.2, 300, n=3)
    assert np.array_equal(got, want)


def test_exact_pole_filter_matches_full_list():
    # the old filter tested every grid point against every k pi in range;
    # a margin of 2 makes the in-range multiple not always the nearest one
    for lo, hi, steps, margin in (
        (0.5, 40.0, 4001, 1e-3),
        (0.5, 40.0, 4001, 2.0),
        (0.5, 6.0, 1000, 2.0),
        (4.0, 20.0, 999, 0.5),
    ):
        sing = [k * math.pi for k in range(max(1, int(lo / math.pi)), int(hi / math.pi) + 1)]
        want = []
        for w in np.linspace(lo, hi, steps):
            if any(abs(w - s) <= margin for s in sing):
                continue
            try:
                b1, _ = dde_boundary(w)
            except SingularityError:
                continue
            if b1 < 0.0:
                want.append(w)
        assert np.array_equal(admissible_omegas(lo, hi, steps, margin=margin), want)


def test_n2_pole_is_the_closed_form():
    # the n=2 closed form _reference._b1_n2 is singular where omega^2 = 16
    (pole,) = analytic._chart_poles(2)
    assert abs(pole - 4.0) <= 1e-14 * 4.0


@pytest.mark.parametrize("n, lo, hi", [
    (2, 0.01, 30.0), (3, 0.01, 30.0), (12, 0.01, 30.0),
    (40, 1.6, 10.0), (100, 1.6, 10.0), (200, 1.6, 10.0),
])
def test_chart_poles_match_the_per_point_scan(n, lo, hi):
    want = per_point_poles(lo, hi, 100, n)
    got = np.array([p for p in analytic._chart_poles(n) if lo <= p <= hi])
    assert len(want) > 0 and len(got) == len(want)
    assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))


def test_degree_one_chart_has_no_poles():
    assert analytic._chart_poles(1) == ()
    grid = np.linspace(1.6, 3.1, 50)
    assert np.array_equal(admissible_omegas(1.6, 3.1, 50, n=1), grid[ps_boundary(1, grid)[0] < 0.0])


def test_chart_poles_need_a_nonzero_last_entry_of_d1(monkeypatch):
    def zero_last(mesh):
        diff = diff_matrix(mesh)
        d0 = diff.d0.copy()
        d0[-1] = 0.0
        return type(diff)(D=diff.D, d0=d0)

    monkeypatch.setattr(analytic, "diff_matrix", zero_last)
    with pytest.raises(SingularityError, match=r"\(D 1\)_n != 0"):
        analytic._chart_poles.__wrapped__(6)

