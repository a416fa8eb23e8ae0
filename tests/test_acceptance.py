"""End-to-end acceptance gate: one test per numbered criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
its measured values. The oracles here are restated from first principles
(closed-form boundary parametrizations, root polynomials, bisection) so a
criterion never checks the library against itself.
"""

import cmath
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from chebdde.analytic import admissible_omegas, boundary, c_blowfly
from chebdde.cheb_mesh import diff_matrix, make_mesh
from chebdde.discretize import (
    assemble_An,
    charfn_det,
    eigenvalues,
    make_system,
    replicate,
)
from chebdde.errors import PeriodEstimateError, NotPeriodicError
from chebdde.hopf import find_hopf, trace_hopf_curve
from chebdde.model import blowflies, fluidflow, make_model
from chebdde.simulate import bracket_period_doubling, integrate, period_report

ROOT = Path(__file__).resolve().parent.parent


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def clause_report(num, clauses):
    detail = "; ".join(
        f"{name} {'ok' if ok else 'FAIL'} ({info})" for name, ok, info in clauses
    )
    report(num, all(ok for _, ok, _ in clauses), detail)


def bisect(f, lo, hi, steps=200):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_boundary(w):
    return w * math.cos(w) / math.sin(w), -w / math.sin(w)


def exact_hopf(mu):
    """(omega*, beta*) of the true DDE from boundary bisection."""
    ws = bisect(lambda w: exact_boundary(w)[0] + mu, 1.6, 3.1)
    b1, b2 = exact_boundary(ws)
    return ws, -b1 * math.exp(1.0 + b2 / b1)


def boundary_n2(w):
    v1 = (7 * w * w - 16) / (w * w - 16)
    return v1, w * w - 4 + 3 * v1


def boundary_n3(w):
    den = 9 * w**4 - 1088 * w * w + 9216
    return (
        17 + 2048 * (7 * w * w - 72) / den,
        -(9 * w**6 - 23 * w**4 + 448 * w * w + 9216) / den,
    )


def c0_closed(w):
    b1, b2 = exact_boundary(w)
    mu = -b1
    beta = mu * math.exp(1.0 + b2 / b1)
    b10 = cmath.exp(-1j * w) / (1 + b2 * cmath.exp(-1j * w))
    b20 = cmath.exp(-2j * w) / (2j * w - b1 - b2 * cmath.exp(-2j * w)) * b10
    g2 = mu * math.log(beta / mu) - 2 * mu
    g3 = -mu * math.log(beta / mu) + 3 * mu
    return 0.5 * g3 * b10 - g2 * g2 / (b1 + b2) * b10 + 0.5 * g2 * g2 * b20


def kicked_state(model, n):
    ps = make_system(model, n)
    y0 = replicate(ps.equilibrium, n)
    return ps, y0 + 0.2 * (1.0 + np.abs(y0))


def test_criterion_1_exact_formula_reproduction():
    diff = diff_matrix(make_mesh(2))
    e_d = np.abs(diff.D - np.array([[0.0, -1.0], [4.0, -3.0]])).max()
    e_d0 = np.abs(diff.d0 - np.array([1.0, -1.0])).max()

    mu, beta = 3.0, 30.0
    b1, b2 = -mu, mu * (1.0 - math.log(beta / mu))
    a2 = assemble_An(make_system(blowflies(mu=mu, beta=beta), 2))
    e_a = np.abs(a2 - np.array([[b1, 0, b2], [1, 0, -1], [-1, 4, -3]])).max()

    e_b = 0.0
    for n, closed, hi in ((2, boundary_n2, 3.9), (3, boundary_n3, 2.95)):
        for w in np.linspace(0.05, hi, 100):
            got = boundary(w, n)
            want = closed(w)
            scale = max(1.0, abs(want[0]), abs(want[1]))
            e_b = max(e_b, abs(got[0] - want[0]) / scale, abs(got[1] - want[1]) / scale)

    ok = e_d < 1e-14 and e_d0 < 1e-14 and e_a < 1e-14 and e_b < 1e-12
    report(1, ok, f"matrix errors D={e_d:.2e} d0={e_d0:.2e} A2={e_a:.2e}, "
                  f"boundary rel err={e_b:.2e}")


def test_criterion_2_hopf_convergence():
    ws, bs = exact_hopf(3.0)
    e_beta, e_omega = [], []
    for n in (4, 6, 8, 10, 12, 14):
        point = find_hopf(make_system(blowflies(mu=3.0), n), "beta", 2.0, 30.0)
        e_beta.append(abs(point.alpha - bs))
        e_omega.append(abs(point.omega - ws))
    dec_b = all(a > b for a, b in zip(e_beta, e_beta[1:]))
    dec_w = all(a > b for a, b in zip(e_omega, e_omega[1:]))
    ok = dec_b and dec_w and e_beta[4] < 1e-8 and e_omega[4] < 1e-8
    report(2, ok, f"beta errors {['%.2e' % e for e in e_beta]} decreasing={dec_b}, "
                  f"omega errors {['%.2e' % e for e in e_omega]} decreasing={dec_w}, "
                  f"n=12: {e_beta[4]:.2e}/{e_omega[4]:.2e}")


def test_criterion_3_direction_coefficient_convergence():
    worst_gap, worst_c = 0.0, 0.0
    for mu in (2.0, 3.0, 5.0):
        ws, bs = exact_hopf(mu)
        h0 = find_hopf(make_system(blowflies(mu=mu)), "beta", ws + 0.05, bs + 0.5)
        h15 = find_hopf(make_system(blowflies(mu=mu), 15), "beta", ws + 0.05, bs + 0.5)
        worst_gap = max(worst_gap, abs(h15.a2 - h0.a2))
        worst_c = max(worst_c, abs(h0.c - c0_closed(h0.omega)))
    ok = worst_gap < 1e-8 and worst_c < 1e-12
    report(3, ok, f"max |a2_15 - a2_0| = {worst_gap:.2e}, "
                  f"max |c_0 - closed form| = {worst_c:.2e}")


def test_criterion_4_lyapunov_sign():
    grid = np.linspace(math.pi / 2, math.pi, 52)[1:-1]
    worst0 = max(c0_closed(w).real for w in grid)
    worst_n, counts = [], []
    for n in (2, 3):
        omegas = admissible_omegas(math.pi / 2, math.pi, 50, n)
        counts.append(len(omegas))
        worst_n.append(max(c_blowfly(w, n).real for w in omegas))
    ok = worst0 < 0 and all(w < 0 for w in worst_n) and all(c >= 30 for c in counts)
    report(4, ok, f"max Re c_0 = {worst0:.4f}, max Re c_n = "
                  f"{['%.4f' % w for w in worst_n]} on {counts} admissible points")


def test_criterion_5_spectral_equivalence():
    rng = np.random.default_rng(20260815)
    worst_res, worst_root = 0.0, 0.0
    for _ in range(50):
        v1, v2 = rng.uniform(-5, 5, 2)
        n = int(rng.integers(3, 11))
        model = make_model(1, [0.0, 1.0], ["b1*x0@0 + b2*x0@1"],
                           params={"b1": v1, "b2": v2}, equilibrium_hint=[0.0])
        cf = make_system(model, n)
        for lam in eigenvalues(assemble_An(make_system(model, n))):
            worst_res = max(worst_res, abs(charfn_det(cf, lam)) / (1 + abs(lam)))
        eigs = list(eigenvalues(assemble_An(make_system(model, 2))))
        for root in np.roots([1.0, 3 - v1, 4 - 3 * v1 + v2, -4 * (v1 + v2)]):
            j = int(np.argmin([abs(root - e) for e in eigs]))
            worst_root = max(worst_root, abs(root - eigs.pop(j)))
    ok = worst_res < 1e-8 and worst_root < 1e-10
    report(5, ok, f"max scaled |Delta_n(lambda)| = {worst_res:.2e}, "
                  f"max n=2 root mismatch = {worst_root:.2e}")


def test_criterion_6_boundary_geometry():
    seed = find_hopf(make_system(blowflies(mu=3.0), 10), "beta", 2.4, 29.0)
    curve = trace_hopf_curve(blowflies(mu=3.0), ("mu", "beta"), seed, 0.25,
                             max_points=400, n=10)
    mus = curve.points[:, 0]
    covered = mus.min() < 1.0 and mus.max() > 10.0
    sup = 0.0
    for mu_i, beta_i, _ in curve.points[(mus >= 1.0) & (mus <= 10.0)]:
        w0 = bisect(lambda w, m=mu_i: exact_boundary(w)[0] + m, 1.6, 3.141)
        b1, b2 = exact_boundary(w0)
        sup = max(sup, abs(beta_i / mu_i - math.exp(1.0 + b2 / b1)))

    w_tiny = 1e-6
    gap0 = max(abs(exact_boundary(w_tiny)[0] - 1), abs(exact_boundary(w_tiny)[1] + 1))
    got = boundary(w_tiny, 10)
    gap_n = max(abs(got[0] - 1), abs(got[1] + 1))

    ok = covered and sup < 1e-4 and gap0 < 1e-4 and gap_n < 1e-4
    report(6, ok, f"mu coverage [{mus.min():.2f}, {mus.max():.2f}], "
                  f"sup |beta/mu gap| = {sup:.2e}, "
                  f"(1,-1) limit gaps exact={gap0:.2e} n=10={gap_n:.2e}")


def test_criterion_7_attractor_periods():
    clauses = []

    ps, y0 = kicked_state(blowflies(mu=7.0, beta=105.0), 20)
    traj = integrate(ps, y0, 200.0, rel_tol=1e-7, abs_tol=1e-9)
    period = period_report(traj)["period"]
    clauses.append(("blowflies period 4.47",
                    abs(period - 4.47) / 4.47 < 0.05, f"measured {period:.4f}"))

    ps, y0 = kicked_state(fluidflow(k=1.5, c=1.5), 20)
    traj = integrate(ps, y0, 400.0, rel_tol=1e-7, abs_tol=1e-9)
    try:
        period = period_report(traj)["period"]
        clauses.append(("fluid-flow period 11.15",
                        abs(period - 11.15) / 11.15 < 0.05, f"measured {period:.4f}"))
    except (PeriodEstimateError, NotPeriodicError) as exc:
        clauses.append(("fluid-flow period 11.15", False,
                        f"no period at c = k = 1.5: {exc}"))

    lo, hi = bracket_period_doubling(blowflies(mu=7.0, beta=105.0), "beta",
                                     (90.0, 110.0), 20)
    clauses.append(("doubling bracket",
                    hi - lo <= 2.0 and lo <= 98.22 <= hi,
                    f"[{lo:.3f}, {hi:.3f}] width {hi - lo:.3f}"))

    clause_report(7, clauses)


def test_criterion_8_property_suites():
    files = ["tests/test_jets.py", "tests/test_mesh.py", "tests/test_model.py",
             "tests/test_discretize.py"]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    tail = proc.stdout.strip().split("\n")[-1] if proc.stdout else ""
    ok = proc.returncode == 0 and elapsed < 120.0
    report(8, ok, f"property suites: {tail!r} in {elapsed:.1f}s")
