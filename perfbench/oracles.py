"""Restated oracles and the output checkers of the four workloads.

Nothing here imports chebdde: every expected value comes from closed forms
of the scalar blowfly model x' = -mu x(t) + beta x(t-1) e^{-x(t-1)}. At its
positive equilibrium the linearization is x' = b1 x(t) + b2 x(t-1) with
b1 = -mu and b2 = mu (1 - ln(beta/mu)), so the exact Hopf boundary is
b1 = w cos(w)/sin(w), b2 = -w/sin(w) and beta/mu = e^{1 + b2/b1} on it.

Each checker takes the text a CLI job wrote and raises CheckFailed with the
first violated clause.
"""

import cmath
import json
import math

#: attractor period of blowflies at mu = 7, beta = 105 (acceptance criterion 7)
PERIOD = 4.4711
PERIOD_TOL = 1e-3
#: criterion 6: sup |beta/mu - e^{1 + b2/b1}| on mu in [1, 10]
CURVE_TOL = 1e-4
CURVE_MU_RANGE = (1.0, 10.0)
#: criterion 2: alpha and omega errors at n = 12, and the rounding floor
#: below which the errors no longer have to decrease with n
CONVERGE_TOL = 1e-8
CONVERGE_N = 12
ERROR_FLOOR = 1e-12
#: relative sigma gap between the finest degree and the exact Hopf point
SIGMA_TOL = 1e-8
#: relative (b1, b2) and formula gaps on the chart rows
CHART_EXACT_TOL = 1e-12
CHART_DISCRETE_TOL = 1e-9


class CheckFailed(Exception):
    """An output violated its oracle."""


def exact_boundary(w: float) -> tuple:
    """(b1, b2) of the exact Hopf boundary at root i w."""
    return w * math.cos(w) / math.sin(w), -w / math.sin(w)


def bisect(f, lo: float, hi: float, steps: int = 100) -> float:
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_hopf(mu: float) -> tuple:
    """(omega, beta) of the principal Hopf point of the exact DDE at mu."""
    w = bisect(lambda w: exact_boundary(w)[0] + mu, 1.6, 3.141)
    b1, b2 = exact_boundary(w)
    return w, mu * math.exp(1.0 + b2 / b1)


def sigma_exact(mu: float) -> float:
    """Transversality Re(D_lambda Delta^{-1} D_beta Delta) at the exact Hopf
    point, for Delta(lambda) = lambda - b1 - b2 e^{-lambda} with
    d b2 / d beta = -mu/beta."""
    w, beta = exact_hopf(mu)
    _, b2 = exact_boundary(w)
    e = cmath.exp(-1j * w)
    return ((mu / beta) * e / (1.0 + b2 * e)).real


def c0_closed(w: float) -> complex:
    """First Lyapunov coefficient along the exact boundary."""
    b1, b2 = exact_boundary(w)
    mu = -b1
    log_ratio = 1.0 + b2 / b1  # ln(beta/mu) on the boundary
    g2 = mu * log_ratio - 2.0 * mu
    g3 = -mu * log_ratio + 3.0 * mu
    b10 = cmath.exp(-1j * w) / (1.0 + b2 * cmath.exp(-1j * w))
    b20 = cmath.exp(-2j * w) / (2j * w - b1 - b2 * cmath.exp(-2j * w)) * b10
    return 0.5 * g3 * b10 - g2 * g2 / (b1 + b2) * b10 + 0.5 * g2 * g2 * b20


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def read_csv(text: str, header: list) -> list:
    """Rows of a CLI CSV as lists of strings, after checking the header."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckFailed(f"header {lines[:1]} is not {header}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise CheckFailed("ragged CSV row")
    return rows


def _floats(row) -> list:
    try:
        return [float(cell) for cell in row]
    except ValueError:
        raise CheckFailed(f"non-numeric cell in {row}") from None


def crossing_period(times: list, x: list, skip: float = 0.6) -> float:
    """Period of the doubled blowfly orbit from its own samples.

    Upward crossings of the time-averaged level over the last (1 - skip) of
    the window, linearly interpolated; the orbit at beta = 105 is past the
    period doubling, so one period spans two crossings.
    """
    cut = times[0] + skip * (times[-1] - times[0])
    pts = [(t, v) for t, v in zip(times, x) if t >= cut]
    area = sum(0.5 * (a[1] + b[1]) * (b[0] - a[0]) for a, b in zip(pts, pts[1:]))
    level = area / (pts[-1][0] - pts[0][0])
    ups = [
        a[0] + (b[0] - a[0]) * (level - a[1]) / (b[1] - a[1])
        for a, b in zip(pts, pts[1:])
        if a[1] < level <= b[1]
    ]
    if len(ups) < 5:
        raise CheckFailed(f"only {len(ups)} level crossings; no oscillation")
    pairs = [b - a for a, b in zip(ups, ups[2:])]
    if max(pairs) - min(pairs) > 1e-2 * min(pairs):
        raise CheckFailed("crossing pairs do not repeat; not the doubled orbit")
    m = (len(ups) - 1) // 2
    return (ups[2 * m] - ups[0]) / m


def check_simulate(csv_text: str, report_text: str, t_end: float):
    """Trajectory reaches t_end with increasing times, and both the reported
    period and the one measured here from the CSV match the oracle."""
    rows = [_floats(row) for row in read_csv(csv_text, ["t", "y0"])]
    if len(rows) < 1000:
        raise CheckFailed(f"only {len(rows)} trajectory rows")
    times = [row[0] for row in rows]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CheckFailed("times do not increase")
    if abs(times[-1] - t_end) > 1e-9 * t_end or times[0] != 0.0:
        raise CheckFailed(f"time window [{times[0]}, {times[-1]}] is not [0, {t_end}]")
    try:
        reported = float(json.loads(report_text)["period"])
    except (ValueError, KeyError, TypeError):
        raise CheckFailed(f"no period in the report {report_text[:80]!r}") from None
    if not abs(reported - PERIOD) < PERIOD_TOL:
        raise CheckFailed(f"reported period {reported} is not {PERIOD}")
    measured = crossing_period(times, [row[1] for row in rows])
    if not abs(measured - PERIOD) < PERIOD_TOL:
        raise CheckFailed(f"trajectory period {measured} is not {PERIOD}")


def check_curve(csv_text: str, points: int):
    """Criterion 6: the traced n = 10 curve matches the exact boundary on
    mu in [1, 10] and covers more than that interval."""
    header = ["mu", "beta", "omega", "step", "residual", "iterations", "simplicity"]
    rows = [_floats(row) for row in read_csv(csv_text, header)]
    if len(rows) != points:
        raise CheckFailed(f"{len(rows)} curve points, expected {points}")
    mus = [row[0] for row in rows]
    lo, hi = CURVE_MU_RANGE
    if not (min(mus) < lo and max(mus) > hi):
        raise CheckFailed(f"mu coverage [{min(mus)}, {max(mus)}] misses [{lo}, {hi}]")
    worst = 0.0
    for mu, beta, *_ in rows:
        if lo <= mu <= hi:
            w = bisect(lambda w, m=mu: exact_boundary(w)[0] + m, 1.6, 3.141)
            b1, b2 = exact_boundary(w)
            worst = max(worst, abs(beta / mu - math.exp(1.0 + b2 / b1)))
    if not worst < CURVE_TOL:
        raise CheckFailed(f"sup |beta/mu gap| {worst:.3e} >= {CURVE_TOL}")


def check_converge(csv_text: str, mu: float, n_list: list):
    """Criterion 2: errors below 1e-8 at n = 12 and decreasing with n until
    the rounding floor; the finest sigma matches the exact transversality.
    n_list must go up in equal steps."""
    header = ["n", "alpha_err", "omega_err", "a2_err", "sigma", "simplicity",
              "nonres_margin", "failure"]
    rows = read_csv(csv_text, header)
    if [int(row[0]) for row in rows] != list(n_list):
        raise CheckFailed(f"degrees {[row[0] for row in rows]} are not {n_list}")
    if any(row[-1] for row in rows):
        raise CheckFailed(f"failed degrees {[row[0] for row in rows if row[-1]]}")
    table = [_floats(row[:-1]) for row in rows]
    for col, name in ((1, "alpha"), (2, "omega")):
        errs = [row[col] for row in table]
        if not all(math.isfinite(e) and e >= 0.0 for e in errs):
            raise CheckFailed(f"{name} errors {errs} are not finite")
        at12 = errs[list(n_list).index(CONVERGE_N)]
        if not at12 < CONVERGE_TOL:
            raise CheckFailed(f"{name} error {at12:.3e} at n = 12 >= {CONVERGE_TOL}")
        # compared two degrees apart: where the error changes sign between
        # degrees, one step can rise (omega at mu = 4.7234: 2.6e-9 at n = 6,
        # 3.3e-8 at n = 8), but the decay still shows over two steps
        for a, b in zip(errs, errs[2:]):
            if not (b < a or b <= ERROR_FLOOR):
                raise CheckFailed(f"{name} errors {errs} do not decrease to the floor")
    sigma = table[-1][4]
    want = sigma_exact(mu)
    if not abs(sigma - want) < SIGMA_TOL * abs(want):
        raise CheckFailed(f"sigma {sigma} at n = {n_list[-1]} is not {want}")


def check_chart(csv_text: str, omega_min: float, omega_max: float, steps: int):
    """Criterion 4 and the n = 40 chart: exact rows follow the closed forms,
    discretized rows agree with the exact boundary, and Re c < 0 throughout."""
    header = ["source", "omega", "b1", "b2", "mu", "beta_over_mu", "re_c"]
    rows = read_csv(csv_text, header)
    by_source = {"dde": [], "discretized": []}
    for row in rows:
        if row[0] not in by_source:
            raise CheckFailed(f"unknown source {row[0]!r}")
        by_source[row[0]].append(_floats(row[1:]))
    for source, table in by_source.items():
        if len(table) < 0.9 * steps:
            raise CheckFailed(f"{len(table)} {source} rows of {steps} requested")
        omegas = [row[0] for row in table]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise CheckFailed(f"{source} omegas do not increase")
        if omegas[0] < omega_min - 1e-12 or omegas[-1] > omega_max + 1e-12:
            raise CheckFailed(f"{source} omegas leave [{omega_min}, {omega_max}]")
        tol = CHART_EXACT_TOL if source == "dde" else CHART_DISCRETE_TOL
        for w, b1, b2, mu, beta_over_mu, re_c in table:
            want1, want2 = exact_boundary(w)
            gap = max(_rel(b1, want1), _rel(b2, want2))
            if not gap < tol:
                raise CheckFailed(f"{source} (b1, b2) at omega={w} off by {gap:.2e}")
            if not (_rel(mu, -b1) < 1e-14
                    and _rel(beta_over_mu, math.exp(1.0 + b2 / b1)) < 1e-12):
                raise CheckFailed(f"{source} (mu, beta/mu) at omega={w} do not map from (b1, b2)")
            if not re_c < 0.0:
                raise CheckFailed(f"{source} Re c = {re_c} >= 0 at omega={w}")
            if source == "dde" and not _rel(re_c, c0_closed(w).real) < 1e-10:
                raise CheckFailed(f"exact Re c at omega={w} is not the closed form")
