"""Time integration of the collocation ODE and attractor-period measurement.

The integrator is a hand-rolled Dormand-Prince 5(4) pair with the first-same-
as-last optimization; it is explicit, so the mesh degree sets the admissible
step through the spectrum of the differentiation blocks. It runs on the
degree-n system make_system(model, n), the same object the characteristic
function is evaluated on (make_system(model) is the delay equation itself,
which has no state vector to step). Each stage evaluates the vector field
as one product with the state operator shared by every system of that
degree (lag rows over the differentiation rows) plus one call of the model
right-hand side, compiled on first use. Periods are measured from upward
crossings of the post-transient mean level, which is robust to the
asymmetric spike shapes these models produce.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import PsSystem, make_system, replicate, rhs
from .errors import (
    EvalDomainError,
    IntegrationError,
    NoJumpError,
    NotPeriodicError,
    PeriodEstimateError,
    UnknownSymbolError,
)
from .model import DdeModel

__all__ = [
    "Trajectory",
    "sample_history",
    "integrate",
    "estimate_period",
    "period_report",
    "bracket_period_doubling",
]

# Dormand-Prince 5(4) tableau, row i holding the stage-i coefficients; row 6
# equals the 5th-order weights, so the last stage of an accepted step is the
# first stage of the next one
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_B5 = _A[6]
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration points: times, full states, step error estimates."""

    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


def sample_history(ps: PsSystem, phi) -> np.ndarray:
    """State vector with blocks phi(theta_j) at the mesh nodes.

    phi may return a scalar (broadcast over components) or a length-d vector.
    """
    d = ps.model.dim
    out = np.empty((ps.n + 1, d))
    for j, theta in enumerate(ps.mesh.nodes):
        try:
            val = phi(theta)
        except Exception as exc:
            raise EvalDomainError(str(exc), f"history at theta={theta!r}") from None
        out[j] = np.broadcast_to(np.asarray(val, dtype=float), (d,))
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("non-finite history value", "history samples")
    return out.reshape(-1)


def integrate(
    ps: PsSystem,
    y0,
    t_end: float,
    rel_tol: float = 1e-6,
    abs_tol: float = 1e-9,
) -> Trajectory:
    """Adaptive 5(4) integration of y' = rhs(ps, y) from t = 0 to t_end.

    Returns the accepted points. Raises IntegrationError with the partial
    trajectory attached on step underflow or a non-finite state.
    """
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 1e-12 <= tol <= 1e-2:
            raise ValueError(f"{name} must lie in [1e-12, 1e-2], got {tol}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    y = np.asarray(y0, dtype=float).copy()
    size = (ps.n + 1) * ps.model.dim
    if y.shape != (size,):
        raise ValueError(f"state must have shape ({size},), got {y.shape}")

    times = [0.0]
    states = [y.copy()]
    errors = [0.0]

    def fail(message):
        traj = Trajectory(np.array(times), np.array(states), np.array(errors))
        raise IntegrationError(message, trajectory=traj)

    f0 = rhs(ps, y)
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-8 and d0 > 1e-8 else 1e-3
    h = float(min(h, 0.1, t_end))

    t = 0.0
    k = np.empty((7, size))
    k[0] = f0
    while t < t_end:
        if h < 1e-12 * max(1.0, abs(t)):
            fail(f"step size underflow at t={t!r}")
        h = min(h, t_end - t)
        # ndarray.dot: less per-call overhead than @ on arrays this small
        for i in range(1, 7):
            k[i] = rhs(ps, y + h * _A[i, :i].dot(k[:i]))
        y_new = y + h * _B5.dot(k)
        if not np.isfinite(y_new).all():
            fail(f"non-finite state at t={t!r}")
        err_vec = h * _ERR.dot(k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        e = err_vec / scale
        err = math.sqrt(e.dot(e) / size)
        if err <= 1.0:
            t += h
            y = y_new
            k[0] = k[6]  # first-same-as-last
            times.append(t)
            states.append(y)
            errors.append(err)
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return Trajectory(np.array(times), np.array(states), np.array(errors))


def _refined_crossing(times, x, i, level):
    # quadratic through three samples around the sign change; fall back to
    # the secant when the parabola has no root inside the bracket
    lo = max(0, min(i - 1, len(times) - 3))
    ts = times[lo : lo + 3]
    xs = x[lo : lo + 3] - level
    linear = times[i] + (times[i + 1] - times[i]) * (-(x[i] - level)) / (
        x[i + 1] - x[i]
    )
    coeffs = np.polyfit(ts - ts[0], xs, 2)
    roots = np.roots(coeffs) + ts[0]
    real = [r.real for r in roots if abs(r.imag) < 1e-12]
    inside = [r for r in real if times[i] <= r <= times[i + 1]]
    return min(inside, key=lambda r: abs(r - linear)) if inside else linear


def _crossing_times(times, x, level):
    below = x[:-1] < level
    above = x[1:] >= level
    hits = np.nonzero(below & above)[0]
    return np.array([_refined_crossing(times, x, i, level) for i in hits])


def _cycle_length(t, x, crossings, spacings):
    # a subharmonic orbit crosses its mean once per hump, so the bare mean
    # spacing halves the period; compare the (spacing, hump peak) signature
    # of consecutive cycles and return the smallest repeat distance
    peaks = np.array(
        [x[(t >= a) & (t <= b)].max() for a, b in zip(crossings[:-1], crossings[1:])]
    )
    amp = x.max() - x.min()
    base = spacings.mean()
    for k in range(1, 5):
        if len(spacings) < k + 2:
            break
        ds = np.max(np.abs(spacings[k:] - spacings[:-k])) / base
        dp = np.max(np.abs(peaks[k:] - peaks[:-k])) / amp
        if ds < 0.02 and dp < 0.02:
            return k
    return None


def period_report(traj: Trajectory, component: int = 0, skip: float = 0.6) -> dict:
    """Attractor period of one state component after a transient.

    skip is the discarded fraction of the time window. Upward crossings of
    the time-weighted mean level split the signal into cycles; the period is
    the mean crossing spacing times the smallest cycle count whose
    (spacing, peak) signatures repeat, so a doubled orbit whose humps both
    cross the mean is not halved. Raises PeriodEstimateError with fewer
    than 3 crossings and NotPeriodicError when cycle shapes never repeat or
    the spacings spread beyond 20% of their mean.
    """
    if not 0.0 <= skip < 1.0:
        raise ValueError(f"skip must lie in [0, 1), got {skip}")
    size = traj.states.shape[1]
    if not 0 <= component < size:
        raise ValueError(f"component must lie in [0, {size}), got {component}")
    t = traj.times
    x = traj.component(component)
    t_cut = t[0] + skip * (t[-1] - t[0])
    sel = t >= t_cut
    t, x = t[sel], x[sel]
    if len(t) < 3:
        raise PeriodEstimateError("too few samples after the transient skip")
    level = np.trapezoid(x, t) / (t[-1] - t[0])
    if x.max() - x.min() <= 1e-6 * (1.0 + abs(level)):
        raise PeriodEstimateError(
            "amplitude at integration-noise level; signal not oscillatory"
        )
    crossings = _crossing_times(t, x, level)
    if len(crossings) < 3:
        raise PeriodEstimateError(
            f"only {len(crossings)} mean-level crossings; signal not oscillatory"
        )
    spacings = np.diff(crossings)
    k = _cycle_length(t, x, crossings, spacings)
    if k is None:
        raise NotPeriodicError(
            "cycle shapes do not repeat within 4 crossings; "
            "quasiperiodic or chaotic signal"
        )
    grouped = np.diff(crossings[::k])
    period = float(np.mean(grouped))
    spread = float((grouped.max() - grouped.min()) / period)
    if spread > 0.2:
        raise NotPeriodicError(
            f"crossing spacings spread {spread:.1%} of the mean; "
            "quasiperiodic or chaotic signal"
        )
    return {
        "period": period,
        "spread": spread,
        "crossings": int(len(crossings)),
        "mean_level": float(level),
    }


def estimate_period(traj: Trajectory, component: int = 0, skip: float = 0.6) -> float:
    return period_report(traj, component, skip)["period"]


def _attractor_period(model: DdeModel, n: int, t_end: float) -> float:
    ps = make_system(model, n)
    y0 = replicate(ps.equilibrium, n)
    y0 += 0.2 * (1.0 + np.abs(y0))  # kick off the equilibrium
    traj = integrate(ps, y0, t_end, rel_tol=1e-7, abs_tol=1e-9)
    return estimate_period(traj, 0, 0.6)


def bracket_period_doubling(
    model: DdeModel,
    param: str,
    bracket,
    n: int,
    tol: float = 2.0,
    t_end: float = 200.0,
) -> tuple:
    """Bisect the parameter interval on the measured attractor period.

    The jump detector is a period ratio above 1.5 against the lower end.
    Returns (lo, hi) with hi - lo <= tol. Raises NoJumpError when the ends
    do not differ by a period jump.
    """
    if param not in model.params:
        raise UnknownSymbolError(f"unknown parameter {param!r}")
    lo, hi = (float(v) for v in bracket)
    if not hi > lo:
        raise ValueError(f"degenerate range [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def period_at(value):
        return _attractor_period(model.with_params(**{param: value}), n, t_end)

    p_lo = period_at(lo)
    p_hi = period_at(hi)
    if p_hi / p_lo <= 1.5:
        raise NoJumpError(
            f"period ratio {p_hi / p_lo:.3f} between {lo} and {hi}; no jump"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if period_at(mid) / p_lo > 1.5:
            hi = mid
        else:
            lo = mid
    return lo, hi
