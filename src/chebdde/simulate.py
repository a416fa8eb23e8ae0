"""Time integration of the collocation ODE and attractor-period measurement.

The integrator is a hand-rolled Dormand-Prince 5(4) pair with the first-same-
as-last optimization; it is explicit, so the mesh degree sets the admissible
step through the spectrum of the differentiation blocks. It runs on the
degree-n system make_system(model, n), the same object the characteristic
function is evaluated on (make_system(model) is the delay equation itself,
which has no state vector to step, and is refused). Each stage evaluates
the vector field as one product with the state operator shared by every
system of that degree (lag rows over the differentiation rows) plus one
call of the model right-hand side, compiled on first use. The first stage
is the one-shot discretize.rhs; the later ones are formed in place in
preallocated memory with the same floating-point operations, so the
trajectory is bit for bit the one an rhs call per stage gives. Periods are
measured from upward crossings of the post-transient mean level, which is
robust to the asymmetric spike shapes these models produce.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .discretize import PsSystem, _require_degree, make_system, replicate, rhs
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
    """Accepted integration points: times, full states, step error estimates.

    stats holds the run counters of integrate: rhs_evals, accepted and
    rejected steps (a step that left the finite range counts as rejected),
    and the smallest and largest accepted step (nan when none was
    accepted).
    """

    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    stats: dict = field(default_factory=dict)

    def component(self, index: int) -> np.ndarray:
        return self.states[:, index]


def sample_history(ps: PsSystem, phi) -> np.ndarray:
    """State vector with blocks phi(theta_j) at the mesh nodes.

    phi may return a scalar (broadcast over components) or a length-d vector.
    """
    _require_degree(ps, "sample_history")
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

    Returns the accepted points, with run counters in Trajectory.stats.
    The first stage is the one-shot rhs(ps, y); every later stage is formed
    in place in preallocated memory with one product with the state
    operator, and its rounding is that of rhs on the same state. Raises
    IntegrationError with the partial trajectory attached on step underflow
    or a non-finite state.
    """
    _require_degree(ps, "integrate")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 1e-12 <= tol <= 1e-2:
            raise ValueError(f"{name} must lie in [1e-12, 1e-2], got {tol}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    y = np.asarray(y0, dtype=float).copy()
    d = ps.model.dim
    size = (ps.n + 1) * d
    if y.shape != (size,):
        raise ValueError(f"state must have shape ({size},), got {y.shape}")

    times = [0.0]
    states = [y.copy()]
    errors = [0.0]
    rejected = 0

    def fail(message):
        traj = _trajectory(times, states, errors, rejected)
        raise IntegrationError(message, trajectory=traj)

    f0 = rhs(ps, y)
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d1 > 1e-8 and d0 > 1e-8 else 1e-3
    h = float(min(h, 0.1, t_end))

    op, rhs_fn = ps.op, ps.rhs_fn
    lags = len(ps.model.delays)
    k = np.empty((7, size))
    k[0] = f0
    # stage i: its tableau row, the earlier stages it combines, and the head
    # (node 0, the model at the lag values) and tail (differentiated nodes)
    # of the stage derivative it writes
    stages = [
        (_A[i, :i], k[:i], k[i, :d], k[i, d:].reshape(ps.n, d)) for i in range(1, 7)
    ]
    stage = np.empty(size)
    stage_nodes = stage.reshape(ps.n + 1, d)
    z = np.empty((len(op), d))
    z_lags, z_tail = z[:lags], z[lags:]
    abs_y = np.abs(y)
    t = 0.0
    while t < t_end:
        if h < 1e-12 * max(1.0, abs(t)):
            fail(f"step size underflow at t={t!r}")
        h = min(h, t_end - t)
        # the rounding of y + h * (row . prev) and of rhs; ndarray.dot has
        # less per-call overhead than np.dot or @ on arrays this small
        for row, prev, head, tail in stages:
            np.multiply(row.dot(prev), h, out=stage)
            stage += y
            op.dot(stage_nodes, out=z)
            try:
                head[:] = rhs_fn(z_lags)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalDomainError(str(exc), "model rhs at node 0") from None
            tail[:] = z_tail
        y_new = np.multiply(_B5.dot(k), h)
        y_new += y
        if not np.isfinite(y_new).all():
            rejected += 1
            fail(f"non-finite state at t={t!r}")
        e = np.multiply(_ERR.dot(k), h)
        abs_y_new = np.abs(y_new)
        scale = np.maximum(abs_y, abs_y_new)
        scale *= rel_tol
        scale += abs_tol
        e /= scale
        err = math.sqrt(e.dot(e) / size)
        if err <= 1.0:
            t += h
            y = y_new
            abs_y = abs_y_new
            k[0] = k[6]  # first-same-as-last
            times.append(t)
            states.append(y)
            errors.append(err)
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return _trajectory(times, states, errors, rejected)


def _trajectory(times, states, errors, rejected) -> Trajectory:
    """The accepted points with their run counters; every attempted step
    (accepted or rejected) makes six rhs evaluations after the first one."""
    times = np.array(times)
    steps = np.diff(times)
    accepted = len(steps)
    stats = {
        "rhs_evals": 1 + 6 * (accepted + rejected),
        "accepted": accepted,
        "rejected": rejected,
        "h_min": float(steps.min()) if accepted else math.nan,
        "h_max": float(steps.max()) if accepted else math.nan,
    }
    return Trajectory(times, np.array(states), np.array(errors), stats)


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
