"""Time integration of the collocation ODE and attractor-period measurement.

The integrator is a hand-rolled Dormand-Prince 8(5,3) pair: twelve stages,
an 8th-order solution and a blend of 5th- and 3rd-order error estimates
(Hairer, Norsett & Wanner, Solving ODEs I, II.10). The derivative at an
accepted point is the first stage of the next step, so a step costs eleven
evaluations and an accepted one a twelfth. It is explicit, so the mesh
degree sets the admissible step through the spectrum of the
differentiation blocks. It runs on the degree-n system make_system(model,
n), the same object the characteristic function is evaluated on
(make_system(model) is the delay equation itself, which has no state
vector to step, and is refused). A stage is two products and one call in
preallocated memory: the h-scaled tableau row times [y; k_0..k_{i-1}]
gives the stage point, the state operator of that degree (lag rows over
the differentiation rows) writes the lag values and the differentiated
tail into the stage's row, and the compiled model rhs writes node 0 from
those lag values, bit for bit as the one-shot discretize.rhs, the first
stage, does. Periods are measured from upward crossings of the
post-transient mean level, which is robust to the asymmetric spike shapes
these models produce; crossings and hump peaks are refined by parabolas
through neighbouring samples, so the cycle classification does not
depend on how densely the steps sample it.
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
    "period_report",
    "bracket_period_doubling",
]

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10): _A[i] holds the coefficients of stages 0..i-1 in stage i, _B the
# 8th-order weights, and _E5 and _E3 the 5th- and 3rd-order error weights.
# The 13th stage, f at the new point, has zero error weight, so it is
# evaluated only after a step is accepted and becomes the next first stage.
_A = tuple(
    np.array(row)
    for row in (
        (),
        (5.26001519587677318785587544488e-2,),
        (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
        (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
        (
            2.41365134159266685502369798665e-1, 0.0,
            -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1,
        ),
        (
            3.7037037037037037037037037037e-2, 0.0, 0.0,
            1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,
        ),
        (
            3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2, -1.7578125e-2,
        ),
        (
            3.70920001185047927108779319836e-2, 0.0, 0.0,
            1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
            -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
        ),
        (
            6.24110958716075717114429577812e-1, 0.0, 0.0,
            -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
            2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
            -4.34898841810699588477366255144e1,
        ),
        (
            4.77662536438264365890433908527e-1, 0.0, 0.0,
            -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
            2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
            -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
        ),
        (
            -9.3714243008598732571704021658e-1, 0.0, 0.0,
            5.18637242884406370830023853209, 1.09143734899672957818500254654,
            -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
            2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
            -3.0467644718982195003823669022,
        ),
        (
            2.27331014751653820792359768449, 0.0, 0.0,
            -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
            -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
            -2.85899827713502369474065508674, -8.87285693353062954433549289258,
            1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,
        ),
    )
)
_B = np.array(
    [
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]
)
_E5 = np.array(
    [
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
        -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1,
    ]
)
# _B less the 3rd-order weights
_E3 = _B - np.array(
    [
        0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
    ]
)
# The tableau over the rows [y; k_0..k_11]: row i is [1 | a_i] for stage i,
# row 12 [1 | b] for the new point; _E holds both error weight rows.
_C = np.array([np.r_[1.0, row, np.zeros(len(_B) - len(row))] for row in (*_A, _B)])
_E = np.vstack([_E5, _E3])


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
            raise EvalDomainError(str(exc), f"history at theta={float(theta)!r}") from None
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
    """Adaptive 8(5,3) integration of y' = rhs(ps, y) from t = 0 to t_end.

    Returns the accepted points, with run counters in Trajectory.stats.
    The first stage is the one-shot rhs(ps, y); every later one, and the
    derivative at each accepted point, is (1 | h a_i) . [y; k], one product
    with the state operator into its row and the rhs writer on node 0, bit
    for bit rhs at that point. The new point is (1 | h b) . [y; k]. The
    error is Hairer's blend of the 5th- and 3rd-order estimates, and the
    step right after a rejection does not grow. Raises IntegrationError
    with the partial trajectory attached on step underflow or a non-finite
    state.
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

    times, states, errors = [0.0], [y], [0.0]
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

    op, write = ps.op, ps.rhs_fn
    lags = len(ps.model.delays)
    # W holds y and k_0..k_11, each row after (K - 1) d entries of padding:
    # the (K + n) x d view of a row is what the state operator writes, the K
    # lag values (the last on the head k_j[:d]) and then the tail in place
    W = np.zeros((len(_C), (lags - 1) * d + size))
    yk = W[:, (lags - 1) * d :]
    yk[0], yk[1] = y, f0
    k, y_nodes = yk[1:], yk[0].reshape(ps.n + 1, d)
    # per row: the product's view, the lag values and the head; made once,
    # as slicing at every stage costs as much as the products
    outs = [(row, row[:lags], row[lags - 1]) for row in W.reshape(len(_C), -1, d)[1:]]
    hC = np.empty_like(_C)
    stage = np.empty(size)
    stage_nodes = stage.reshape(ps.n + 1, d)
    # stage i: its coefficients, the rows [y; k_0..k_{i-1}] and where k_i goes
    stages = [(hC[i, : i + 1], yk[: i + 1], *outs[i]) for i in range(1, len(outs))]
    abs_y = np.abs(y)
    retried = False
    t = 0.0
    while t < t_end:
        if h >= t_end - t:
            h = t_end - t  # the end of the window shortens this step
        elif h < 1e-12 * max(1.0, abs(t)):
            fail(f"step size underflow at t={t!r}")
        np.multiply(_C, h, out=hC)
        hC[:, 0] = 1.0  # y enters every stage unscaled
        for coeffs, prev, row, lag_values, head in stages:
            coeffs.dot(prev, out=stage)
            op.dot(stage_nodes, out=row)
            write(lag_values, head)
        y_new = hC[-1].dot(yk)
        if not np.isfinite(y_new).all():
            rejected += 1
            fail(f"non-finite state at t={t!r}")
        abs_y_new = np.abs(y_new)
        scale = abs_tol + rel_tol * np.maximum(abs_y, abs_y_new)
        e5, e3 = np.divide(_E.dot(k), scale)
        n5 = float(e5.dot(e5))  # h and t stay floats, as printed on failure
        blend = n5 + 0.01 * float(e3.dot(e3))
        err = h * n5 / math.sqrt(blend * size) if blend > 0.0 else 0.0
        factor = min(10.0, max(0.2, 0.9 * err**-0.125)) if err > 0.0 else 10.0
        if err <= 1.0:
            t += h
            yk[0] = y_new
            abs_y = abs_y_new
            # first-same-as-last: the next step's first stage
            row, lag_values, head = outs[0]
            op.dot(y_nodes, out=row)
            write(lag_values, head)
            times.append(t)
            states.append(y_new)
            errors.append(err)
            factor = min(factor, 1.0 if retried else 10.0)
            retried = False
        else:
            rejected += 1
            retried = True
        h *= factor
    return _trajectory(times, states, errors, rejected)


def _trajectory(times, states, errors, rejected) -> Trajectory:
    """The accepted points with their run counters; every attempted step
    (accepted or rejected) makes eleven rhs evaluations after the first
    one, and every accepted step one more at its new point."""
    times = np.array(times)
    steps = np.diff(times)
    accepted = len(steps)
    stats = {
        "rhs_evals": 1 + 11 * (accepted + rejected) + accepted,
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


def _refined_peak(times, x, i):
    # vertex of the parabola through the largest sample and its neighbours,
    # so the peak does not depend on how densely the hump is sampled; a
    # hump's largest sample lies strictly between two crossings, so both
    # neighbours exist
    c2, c1, c0 = np.polyfit(times[i - 1 : i + 2] - times[i], x[i - 1 : i + 2], 2)
    return c0 - c1 * c1 / (4.0 * c2) if c2 < 0.0 else x[i]


def _cycle_length(t, x, crossings, spacings):
    # a subharmonic orbit crosses its mean once per hump, so the bare mean
    # spacing halves the period; compare the (spacing, hump peak) signature
    # of consecutive cycles and return the smallest repeat distance
    peaks = []
    for a, b in zip(crossings[:-1], crossings[1:]):
        lo, hi = np.searchsorted(t, (a, b))
        peaks.append(_refined_peak(t, x, lo + int(np.argmax(x[lo:hi]))))
    peaks = np.array(peaks)
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
    x = traj.states[:, component]
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


def _attractor_period(model: DdeModel, n: int, t_end: float) -> float:
    ps = make_system(model, n)
    y0 = replicate(ps.equilibrium, n)
    y0 += 0.2 * (1.0 + np.abs(y0))  # kick off the equilibrium
    traj = integrate(ps, y0, t_end, rel_tol=1e-7, abs_tol=1e-9)
    return period_report(traj)["period"]


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
