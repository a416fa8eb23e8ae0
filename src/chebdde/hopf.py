"""Hopf point location and diagnostics for delay models.

Works on one characteristic function,
Delta(lambda) = lambda I - sum_k C_k v_k(lambda), for the delay equation
(make_system(model), lag factors e^{-lambda tau_k}) and its degree-n
collocation ODE (make_system(model, n), interpolated lag solves) alike:
Newton on the imaginary-axis root condition, transversality/simplicity/
non-resonance diagnostics, the first Lyapunov coefficient by the three-term
formula, the branch direction coefficient, pseudo-arclength continuation of
the critical curve in two parameters, and degree-refinement studies. One
Newton corrector over (omega, parameter values) locates points and corrects
curve points; each iterate builds the model once and reads Delta from one
jet. A located point is diagnosed once, in hopf_point, into HopfPoint's
fields.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import (
    _factor,
    _jet,
    _root_data,
    _smin,
    _system,
    assemble_An,
    eigenvalues,
    make_system,
)
from .errors import (
    ChebddeError,
    ConditioningError,
    ContinuationError,
    ConvergenceError,
    NormalizationError,
    NotARootError,
    ResonanceError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)

__all__ = [
    "ResonanceVerdict",
    "HopfPoint",
    "CurveDiag",
    "StabilityCurve",
    "StudyRow",
    "hopf_point",
    "find_hopf",
    "trace_hopf_curve",
    "convergence_study",
]

#: Newton iteration budget and scaled residual floor for find_hopf
MAX_NEWTON = 50
RES_TOL = 1e-12

#: resonance scan: per-k margin floor (scaled by 1 + k*omega) and largest k
NONRES_TOL = 1e-8
K_MAX = 10

#: corrector residual for curve tracing, its iteration budget and the
#: smallest admissible step
CURVE_TOL = 1e-10
_MAX_CORRECTOR = 10
STEP_FLOOR = 1e-8


@dataclass(frozen=True)
class ResonanceVerdict:
    """Outcome of the resonance scan at a critical pair +-i*omega.

    margins holds (k, smallest singular value of Delta(k i omega)) for
    k in {0, 2, ..., K_MAX}; failures lists the k whose margin fell below
    the scaled floor. For discretized problems axis_clearance is the
    smallest |Re| over the non-critical eigenvalues of the collocation
    matrix and near_axis lists any of them within 1e-6 of the axis.
    """

    ok: bool
    margins: tuple
    failures: tuple
    axis_clearance: Optional[float] = None
    near_axis: tuple = ()


@dataclass(frozen=True)
class HopfPoint:
    """A located critical point with its genericity diagnostics.

    alpha is the value of the bifurcation parameter named by param, omega
    the critical frequency, c the Lyapunov coefficient, sigma the
    transversality value Re(D1 Delta^{-1} D2 Delta) (its q.D2 p analogue
    for systems), a2 = Re(c)/sigma the branch direction coefficient, and
    simplicity_margin the smallest singular value of D1 Delta(i omega).
    residuals keeps the Newton residual history for convergence checks.
    """

    param: str
    alpha: float
    omega: float
    c: complex
    sigma: float
    a2: float
    simplicity_margin: float
    nonresonance: ResonanceVerdict
    residuals: tuple = ()


@dataclass(frozen=True)
class CurveDiag:
    """Per-point corrector record: final residual, iterations used, and the
    smallest singular value of D1 Delta as a simplicity measure."""

    residual: float
    iterations: int
    simplicity: float


@dataclass(frozen=True)
class StabilityCurve:
    """A traced critical curve in two parameters.

    points has one row (param1, param2, omega) per accepted point, ordered
    along the curve; steps[i] is the arclength gap to the previous row
    (0 for the first); diagnostics aligns one CurveDiag per row. stats
    counts corrector_iterates (one rebuild each), step halvings, rebuilds
    (the start included) and the equilibrium newton_steps they took.
    """

    names: tuple
    points: np.ndarray
    steps: np.ndarray
    diagnostics: tuple
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StudyRow:
    """One degree of a refinement study; error columns are against the
    study's reference point and nonres_margin is the smallest per-k margin.
    failure carries the error code when the point could not be located."""

    n: int
    alpha_err: float
    omega_err: float
    a2_err: float
    sigma: float
    simplicity: float
    nonres_margin: float
    failure: Optional[str] = None


def _at_alpha(cf, param: str, alpha: float):
    """Rebuild cf at the requested parameter value if it sits elsewhere."""
    if param in cf.model.params and float(cf.model.params[param]) != float(alpha):
        return cf.with_param(param, float(alpha))
    return cf


def _critical_pair(lam: complex, p, q, dl):
    """The kernel pair (p, q) of Delta(lam) scaled so p[0] = 1 and
    q . D1 Delta p = 1, given D1 Delta at lam. A vanishing p[0] is refused
    before the simplicity test: that root may be simple."""
    if abs(p[0]) < 1e-8 * np.linalg.norm(p):
        raise NormalizationError(
            "critical eigenvector has a vanishing first component; "
            "the first-component normalization is unusable here"
        )
    p = p / p[0]
    s = q @ (dl @ p)
    if abs(s) < 1e-10 * (1.0 + abs(lam)) * np.linalg.norm(p) * np.linalg.norm(q):
        raise SimplicityError(
            f"characteristic root {lam} is not numerically simple"
        )
    return p, q / s


def _lyapunov(cf, omega: float, pair) -> tuple:
    """Three-term Lyapunov coefficient at the critical pair, with the
    resonance margins (k, smallest singular value of Delta(k i omega)) of
    the two solves it makes, k = 0 and 2.

    The quadratic corrections solve Delta(0) w0 = D2g(phi, conj phi) and
    Delta(2 i omega) w2 = D2g(phi, phi); the history fed back into the
    forms is constant for w0 and carries the 2-i-omega lag values for w2.
    """
    model, xbar = cf.model, cf.equilibrium
    p, q = pair
    hess = model.derivs.second(xbar, model.params)[1]
    third = model.derivs.third(xbar, model.params)
    phi = np.outer(cf.lag_values(1j * omega), p).ravel()
    phib = phi.conj()
    h11 = hess @ phib @ phi
    h20 = hess @ phi @ phi
    w0, m0 = _resonant_solve(cf, 0.0, h11, "transcritical coincidence, 0 is a root")
    w2, m2 = _resonant_solve(
        cf, 2j * omega, h20, "two-to-one resonance, 2 i omega is a root"
    )
    w0dir = np.tile(w0, len(model.delays))
    w2dir = np.outer(cf.lag_values(2j * omega), w2).ravel()
    terms = 0.5 * (third @ phib @ phi @ phi)
    terms = terms + hess @ phi @ w0dir
    terms = terms + 0.5 * (hess @ phib @ w2dir)
    return complex(q @ terms), ((0, m0), (2, m2))


def _resonant_solve(cf, lam: complex, rhs_vec: np.ndarray, what: str) -> tuple:
    delta = _jet(cf, lam, slope=False)[0]
    margin = _smin(delta)
    if margin < 1e-10 * (1.0 + abs(lam)):
        raise ResonanceError(f"Delta({lam}) is singular: {what}")
    return np.linalg.solve(delta, np.asarray(rhs_vec, dtype=complex)), margin


def _nonresonance_verdict(cf, omega: float, known=()) -> ResonanceVerdict:
    """Scan the margins of Delta at k*i*omega for k in {0, 2, ..., K_MAX},
    taking the (k, margin) pairs in known as already computed; for
    discretized problems additionally sweep the collocation spectrum for any
    non-critical eigenvalue within 1e-6 of the imaginary axis."""
    known = dict(known)
    margins = []
    failures = []
    for k in (0, *range(2, K_MAX + 1)):
        margin = known.get(k)
        if margin is None:
            try:
                margin = _smin(_jet(cf, 1j * (k * omega), slope=False)[0])
            except ConditioningError:
                # k*i*omega fell onto a spurious pole of the lag solve; the
                # margin there is not trustworthy, so report the k as failed
                margin = math.nan
        margins.append((k, margin))
        if not margin > NONRES_TOL * (1.0 + k * omega):
            failures.append(k)
    clearance = None
    near = ()
    if cf.n is not None:
        vals = eigenvalues(assemble_An(cf))
        drop = {
            int(np.argmin(np.abs(vals - 1j * omega))),
            int(np.argmin(np.abs(vals + 1j * omega))),
        }
        others = np.array([v for i, v in enumerate(vals) if i not in drop])
        if others.size:
            clearance = float(np.min(np.abs(others.real)))
            near = tuple(complex(v) for v in others[np.abs(others.real) < 1e-6])
    ok = not failures and not near
    return ResonanceVerdict(
        ok=ok,
        margins=tuple(margins),
        failures=tuple(failures),
        axis_clearance=clearance,
        near_axis=near,
    )


def hopf_point(cf, param: str, omega: float, alpha: float,
               residuals=()) -> HopfPoint:
    """Assemble a fully diagnosed HopfPoint at an already-located root.

    Validates that i*omega solves the characteristic equation at alpha
    before computing any diagnostics, each of which is computed once here:
    the Lyapunov solves at 0 and 2 i omega also give the resonance scan its
    k = 0 and 2 margins. At a degree the lag solves at those shifts and the
    scan's are factored in one stacked call.
    """
    omega = float(omega)
    alpha = float(alpha)
    cur = _at_alpha(cf, param, alpha)
    lam = 1j * omega
    delta, dl, dalphas = _jet(cur, lam, (param,))
    _, _, root_res, p, q = _root_data(delta)
    if not root_res < RES_TOL * (1.0 + abs(omega)):
        raise NotARootError(
            f"(omega, {param}) = ({omega:.6g}, {alpha:.6g}) does not solve the "
            f"characteristic equation (residual {root_res:.2e})"
        )
    simplicity = _smin(dl)
    p, q = _critical_pair(lam, p, q, dl)
    (dalpha,) = dalphas  # read after the root and pair checks
    sigma = float((q @ (dalpha @ p)).real)
    if cur.n is not None:
        # the Lyapunov solves' and the scan's shifts, factored in one call
        _factor(cur, [1j * (k * omega) for k in (0, *range(2, K_MAX + 1))])
    c, known = _lyapunov(cur, omega, (p, q))
    a2 = c.real / sigma if sigma != 0.0 else math.nan
    verdict = _nonresonance_verdict(cur, omega, known)
    return HopfPoint(
        param=param,
        alpha=alpha,
        omega=omega,
        c=c,
        sigma=sigma,
        a2=a2,
        simplicity_margin=simplicity,
        nonresonance=verdict,
        residuals=tuple(residuals),
    )


def _hopf_rows(cf, omega: float, names) -> tuple:
    """The one place the Hopf Newton system is assembled, at lambda = i
    omega: f (Delta for scalars, det Delta for systems), the real rows of
    the Jacobian of (Re f, Im f) in u = (omega, *values of names), the root
    residual and D1 Delta."""
    delta, dl, dalpha = _jet(cf, 1j * omega, names)
    f, derivs, res, _, _ = _root_data(delta, dl, *dalpha)
    fl, *fp = map(complex, derivs)
    rows = [[-fl.imag, *(g.real for g in fp)], [fl.real, *(g.imag for g in fp)]]
    return complex(f), rows, res, dl


def _det(m) -> float:
    """Determinant of a 2 x 2 or 3 x 3 matrix of Python floats."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _hopf_newton(cf, rebuild, names, u, tol: float, budget: int,
                 border=None) -> tuple:
    """Newton over u = (omega, *values of names) for a located point and
    for each corrector of a critical curve: every iterate takes
    cf = rebuild(cf, u), and border = (t, u_pred) appends the arclength row
    t . (u - u_pred) = 0. Returns (u, cf, residuals, D1 Delta) once the
    residual is below tol * (1 + omega). A Newton matrix with |det| below
    1e-14 times the product of its column norms is singular; a NaN one
    reaches the finiteness check instead, and a non-finite f ends the
    iteration before any step is taken.
    """
    u = [float(v) for v in u]  # Python floats: a scalar Newton is overhead-bound
    residuals = []
    while True:
        if not all(map(math.isfinite, u)):
            raise ConvergenceError("Newton iterate became non-finite")
        if u[0] <= 0.0:
            raise ConvergenceError(
                f"omega collapsed to {u[0]:.3g} <= 0 during the iteration"
            )
        if len(residuals) == budget:
            raise ConvergenceError(
                f"no critical point within {budget} iterations "
                f"(residual {residuals[-1]:.2e})"
            )
        cf = rebuild(cf, u)
        f, rows, res, dl = _hopf_rows(cf, u[0], names)
        residuals.append(res)
        if res < tol * (1.0 + abs(u[0])):
            return np.array(u), cf, residuals, dl
        if not cmath.isfinite(f):
            raise ConvergenceError("Newton iterate became non-finite")
        rhs = [-f.real, -f.imag]
        if border is not None:
            t, u_pred = border
            rows.append(t.tolist())
            rhs.append(-(t @ np.subtract(u, u_pred)))
        norms = math.prod(math.hypot(*col) for col in zip(*rows))
        if abs(_det(rows)) < 1e-14 * (1e-30 + norms):
            raise SingularityError(
                f"Newton Jacobian is singular at (omega, {', '.join(names)}) = "
                f"({', '.join(f'{v:.6g}' for v in u)}): transversality or "
                "simplicity failure at the root"
            )
        u = [a + b for a, b in zip(u, np.linalg.solve(rows, rhs).tolist())]


def find_hopf(cf, param: str, omega_guess: float, alpha_guess: float) -> HopfPoint:
    """Newton iteration for a root of the characteristic function on the
    imaginary axis, moving (omega, alpha) jointly.

    The residual is the smallest singular value of Delta(i omega), for
    scalar problems LAPACK's value of the modulus (which may differ from
    abs() in the last bit); the step solves the analytic 2x2 Jacobian of
    (Re f, Im f) in (omega, alpha) with f the determinant.
    """
    omega = float(omega_guess)
    alpha = float(alpha_guess)
    if omega <= 0.0:
        raise ValueError(f"omega_guess must be positive, got {omega}")
    u, cur, residuals, _ = _hopf_newton(
        cf, lambda cur, u: _at_alpha(cur, param, u[1]), (param,), (omega, alpha),
        RES_TOL, MAX_NEWTON,
    )
    return hopf_point(cur, param, u[0], u[1], residuals)


def _null3(jac: np.ndarray) -> np.ndarray:
    """Unit kernel direction of a real 2x3 Jacobian, largest entry positive."""
    _, _, vh = np.linalg.svd(jac)
    t = vh[-1]
    if t[np.argmax(np.abs(t))] < 0:
        t = -t
    return t


def trace_hopf_curve(model, params, start: HopfPoint, step: float,
                     max_points: int = 400, n: Optional[int] = None
                     ) -> StabilityCurve:
    """Trace the critical curve through start in the (params[0], params[1])
    plane by secant prediction and pseudo-arclength correction.

    Both directions along the curve are walked, each up to
    (max_points - 1) // 2 points, and assembled in curve order; flipping
    the sign of step therefore yields the same points reversed. The step
    length adapts between STEP_FLOOR and 4x the initial size; underflow
    aborts with the last good point attached.
    """
    names = tuple(params)
    if len(names) != 2 or names[0] == names[1]:
        raise ValueError(f"need two distinct parameter names, got {names}")
    for name in names:
        if name not in model.params:
            raise UnknownSymbolError(f"unknown parameter {name!r}")
    if step == 0.0:
        raise ValueError("step must be nonzero")
    base = model
    if start.param in model.params:
        base = model.with_params(**{start.param: start.alpha})
    stats = dict.fromkeys(
        ("corrector_iterates", "halvings", "rebuilds", "newton_steps"), 0
    )

    def build(u, guess):
        # every corrector iterate, and the start, rebuilds the model at u
        stats["rebuilds"] += 1
        m = base.with_params(**{names[0]: float(u[1]), names[1]: float(u[2])})
        cf = _system(m, n, guess=guess)
        stats["newton_steps"] += cf._point[2]
        return cf

    # u runs (omega, p1, p2); points and last_point read (p1, p2, omega)
    order = [1, 2, 0]
    u0 = np.array([float(start.omega), *(float(base.params[k]) for k in names)])
    cf0 = build(u0, None)
    _, rows0, res0, dl0 = _hopf_rows(cf0, u0[0], names)
    if not res0 < CURVE_TOL * (1.0 + abs(u0[0])):
        raise ConvergenceError(
            f"initial point does not satisfy the defining equations "
            f"(residual {res0:.2e})"
        )
    tangent = _null3(np.array(rows0))
    half = max(0, (int(max_points) - 1) // 2)

    def walk(direction):
        pts, diags = [], []
        prev = u0
        tang = direction * tangent
        h = abs(step)
        guess = cf0.equilibrium
        while len(pts) < half:
            u_pred = prev + h * tang
            try:
                u_new, cf, residuals, dl = _hopf_newton(
                    None, lambda _, u, guess=guess: build(u, guess), names, u_pred,
                    CURVE_TOL, _MAX_CORRECTOR, (tang, u_pred),
                )
            except ChebddeError:
                h *= 0.5
                stats["halvings"] += 1
                if h < STEP_FLOOR:
                    raise ContinuationError(
                        "continuation step underflow near a singular "
                        f"point after {len(pts)} points",
                        last_point=tuple(float(v) for v in prev[order]),
                    ) from None
                continue
            ds = float(np.linalg.norm(u_new - prev))
            if ds < 1e-12:
                raise ContinuationError(
                    "corrector collapsed onto the previous point",
                    last_point=tuple(float(v) for v in prev[order]),
                )
            its = len(residuals) - 1
            tang = (u_new - prev) / ds
            pts.append(u_new)
            diags.append(CurveDiag(residual=residuals[-1], iterations=its,
                                   simplicity=_smin(dl)))
            prev, guess = u_new, cf.equilibrium
            if its <= 4:
                h = min(h * 2.0, 4.0 * abs(step))
        return pts, diags

    back_pts, back_diags = walk(-math.copysign(1.0, step))
    fwd_pts, fwd_diags = walk(math.copysign(1.0, step))
    stats["corrector_iterates"] = stats["rebuilds"] - 1
    points = np.array(back_pts[::-1] + [u0] + fwd_pts)[:, order]
    diags = (
        back_diags[::-1]
        + [CurveDiag(residual=res0, iterations=0, simplicity=_smin(dl0))]
        + fwd_diags
    )
    steps = [0.0] + [
        float(np.linalg.norm(b - a)) for a, b in zip(points, points[1:])
    ]
    return StabilityCurve(
        names=names,
        points=points,
        steps=np.array(steps),
        diagnostics=tuple(diags),
        stats=stats,
    )


def _seed_omega(model, n: int) -> float:
    """Frequency guess: the imaginary part of the collocation eigenvalue
    closest to the imaginary axis among those with positive imaginary part."""
    vals = eigenvalues(assemble_An(make_system(model, max(int(n), 8))))
    cands = vals[vals.imag > 1e-8]
    if cands.size == 0:
        raise ConvergenceError(
            "no oscillatory eigenvalue to seed the frequency guess"
        )
    return float(cands[int(np.argmin(np.abs(cands.real)))].imag)


def convergence_study(model, param: str, n_list, omega_guess=None,
                      alpha_guess=None, reference="analytic"):
    """Locate the critical point at every degree in n_list and tabulate the
    errors against a reference, plus the bounded-away-from-zero diagnostics.

    reference selects the comparison point: "analytic" uses the exact
    characteristic function, "finest" the largest degree in n_list; a
    reference that cannot be located raises its error. Rows for degrees
    where the search fails carry the error code instead of aborting the
    study.
    """
    if param not in model.params:
        raise UnknownSymbolError(f"unknown parameter {param!r}")
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if alpha_guess is None:
        alpha_guess = float(model.params[param])
    if omega_guess is None:
        omega_guess = _seed_omega(model, max(n_list))
    if reference not in ("analytic", "finest"):
        raise ValueError(f"unknown reference mode {reference!r}")

    points = {}

    def locate(n):
        if n not in points:
            points[n] = find_hopf(make_system(model, n), param, omega_guess,
                                  alpha_guess)
        return points[n]

    ref = locate(None if reference == "analytic" else max(n_list))

    rows = []
    for n in n_list:
        try:
            h = locate(n)
        except ChebddeError as exc:
            # every column but n is NaN
            rows.append(StudyRow(n, *[math.nan] * 6, failure=exc.code))
            continue
        margin = min(m for _, m in h.nonresonance.margins)
        rows.append(
            StudyRow(
                n=n,
                alpha_err=abs(h.alpha - ref.alpha),
                omega_err=abs(h.omega - ref.omega),
                a2_err=abs(h.a2 - ref.a2),
                sigma=h.sigma,
                simplicity=h.simplicity_margin,
                nonres_margin=margin,
            )
        )
    return rows
