"""Hopf point location and diagnostics for delay models.

Works on one characteristic function,
Delta(lambda) = lambda I - sum_k C_k v_k(lambda), for the delay equation
(make_system(model), lag factors e^{-lambda tau_k}) and its degree-n
collocation ODE (make_system(model, n), interpolated lag solves) alike:
Newton on the imaginary-axis root condition, transversality/simplicity/
non-resonance diagnostics, the first Lyapunov coefficient by the three-term
formula, the branch direction coefficient, pseudo-arclength continuation of
the critical curve in two parameters, and degree-refinement studies.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import (
    _adjugate,
    _as_matrix,
    assemble_An,
    charfn_dalpha,
    charfn_dlambda,
    charfn_eval,
    eigenvalues,
    kernel_vector,
    make_system,
)
from .errors import (
    ChebddeError,
    ConditioningError,
    ContinuationError,
    ConvergenceError,
    ResonanceError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from .model import bilinear_form, equilibrium_solve, trilinear_form

__all__ = [
    "ResonanceVerdict",
    "HopfPoint",
    "CurveDiag",
    "StabilityCurve",
    "StudyRow",
    "hopf_point",
    "find_hopf",
    "transversality",
    "nonresonance",
    "lyapunov_c",
    "direction_a2",
    "trace_hopf_curve",
    "convergence_study",
]

#: Newton iteration budget and scaled residual floor for find_hopf
MAX_NEWTON = 50
RES_TOL = 1e-12

#: per-k non-resonance margin floor (scaled by 1 + k*omega)
NONRES_TOL = 1e-8

#: corrector residual for curve tracing and its smallest admissible step
CURVE_TOL = 1e-10
STEP_FLOOR = 1e-8


@dataclass(frozen=True)
class ResonanceVerdict:
    """Outcome of the resonance scan at a critical pair +-i*omega.

    margins holds (k, smallest singular value of Delta(k i omega)) for
    k in {0, 2, ..., k_max}; failures lists the k whose margin fell below
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
    (0 for the first); diagnostics aligns one CurveDiag per row.
    """

    names: tuple
    points: np.ndarray
    steps: np.ndarray
    diagnostics: tuple


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


def _smin(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def _at_alpha(cf, param: str, alpha: float):
    """Rebuild cf at the requested parameter value if it sits elsewhere."""
    if param in cf.model.params and float(cf.model.params[param]) != float(alpha):
        return cf.with_param(param, float(alpha))
    return cf


def _root_data(cf, lam: complex, param: str):
    """(f, df/dlambda, df/dalpha) for the Newton function f: the
    characteristic value itself for scalars, its determinant for systems."""
    delta = _as_matrix(charfn_eval(cf, lam))
    dl = _as_matrix(charfn_dlambda(cf, lam))
    da = _as_matrix(charfn_dalpha(cf, lam, param))
    if cf.dim == 1:
        return delta[0, 0], dl[0, 0], da[0, 0]
    adj = _adjugate(delta)
    return (
        complex(np.linalg.det(delta)),
        complex(np.trace(adj @ dl)),
        complex(np.trace(adj @ da)),
    )


def _critical_pair(cf, lam: complex):
    """Kernel vectors (p, q) with p[0] = 1 and q . D1 Delta p = 1."""
    delta = _as_matrix(charfn_eval(cf, lam))
    dl = _as_matrix(charfn_dlambda(cf, lam))
    if cf.dim == 1:
        p = np.ones(1, dtype=complex)
        qt = np.ones(1, dtype=complex)
    else:
        p = kernel_vector(delta)
        if abs(p[0]) < 1e-8 * np.linalg.norm(p):
            raise SimplicityError(
                "critical eigenvector has a vanishing first component; "
                "the first-component normalization is unusable here"
            )
        p = p / p[0]
        qt = kernel_vector(delta.T)
    s = qt @ (dl @ p)
    if abs(s) < 1e-10 * (1.0 + abs(lam)) * np.linalg.norm(p) * np.linalg.norm(qt):
        raise SimplicityError(
            f"characteristic root {lam} is not numerically simple"
        )
    return p, qt / s


def _transversality(cf, omega: float, param: str) -> float:
    lam = 1j * omega
    p, q = _critical_pair(cf, lam)
    da = _as_matrix(charfn_dalpha(cf, lam, param))
    return float((q @ (da @ p)).real)


def _lyapunov(cf, omega: float) -> complex:
    """Three-term Lyapunov coefficient at the critical pair.

    The quadratic corrections solve Delta(0) w0 = D2g(phi, conj phi) and
    Delta(2 i omega) w2 = D2g(phi, phi); the history fed back into the
    forms is constant for w0 and carries the 2-i-omega lag values for w2.
    """
    model, xbar = cf.model, cf.equilibrium
    lam = 1j * omega
    p, q = _critical_pair(cf, lam)
    v1 = cf.lag_values(lam)
    lags = range(len(model.delays))
    phi = {(i, k): v1[k] * p[i] for i in range(cf.dim) for k in lags}
    phib = {key: val.conjugate() for key, val in phi.items()}
    h11 = bilinear_form(model, xbar, phi, phib)
    h20 = bilinear_form(model, xbar, phi, phi)
    w0 = _resonant_solve(cf, 0.0, h11, "transcritical coincidence, 0 is a root")
    w2 = _resonant_solve(
        cf, 2j * omega, h20, "two-to-one resonance, 2 i omega is a root"
    )
    v2 = cf.lag_values(2j * omega)
    w0dir = {(i, k): w0[i] for i in range(cf.dim) for k in lags}
    w2dir = {(i, k): v2[k] * w2[i] for i in range(cf.dim) for k in lags}
    terms = 0.5 * trilinear_form(model, xbar, phi, phi, phib)
    terms = terms + bilinear_form(model, xbar, w0dir, phi)
    terms = terms + 0.5 * bilinear_form(model, xbar, w2dir, phib)
    return complex(q @ terms)


def _resonant_solve(cf, lam: complex, rhs_vec: np.ndarray, what: str) -> np.ndarray:
    delta = _as_matrix(charfn_eval(cf, lam))
    if _smin(delta) < 1e-10 * (1.0 + abs(lam)):
        raise ResonanceError(f"Delta({lam}) is singular: {what}")
    return np.linalg.solve(delta, np.asarray(rhs_vec, dtype=complex))


def _nonresonance_verdict(cf, omega: float, k_max: int) -> ResonanceVerdict:
    margins = []
    failures = []
    for k in (0, *range(2, k_max + 1)):
        try:
            margin = _smin(_as_matrix(charfn_eval(cf, 1j * (k * omega))))
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


def hopf_point(cf, param: str, omega: float, alpha: float, k_max: int = 10,
               residuals=()) -> HopfPoint:
    """Assemble a fully diagnosed HopfPoint at an already-located root.

    Validates that i*omega solves the characteristic equation at alpha
    before computing any diagnostics.
    """
    omega = float(omega)
    alpha = float(alpha)
    cur = _at_alpha(cf, param, alpha)
    root_res = _smin(_as_matrix(charfn_eval(cur, 1j * omega)))
    if not root_res < RES_TOL * (1.0 + abs(omega)):
        raise ValueError(
            f"(omega, {param}) = ({omega:.6g}, {alpha:.6g}) does not solve the "
            f"characteristic equation (residual {root_res:.2e})"
        )
    simplicity = _smin(_as_matrix(charfn_dlambda(cur, 1j * omega)))
    sigma = _transversality(cur, omega, param)
    c = _lyapunov(cur, omega)
    a2 = c.real / sigma if sigma != 0.0 else math.nan
    verdict = _nonresonance_verdict(cur, omega, k_max)
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


def find_hopf(cf, param: str, omega_guess: float, alpha_guess: float,
              k_max: int = 10) -> HopfPoint:
    """Newton iteration for a root of the characteristic function on the
    imaginary axis, moving (omega, alpha) jointly.

    The residual is the smallest singular value of Delta(i omega) (the
    modulus itself for scalar problems); the step solves the analytic 2x2
    Jacobian of (Re f, Im f) in (omega, alpha) with f the determinant.
    """
    omega = float(omega_guess)
    alpha = float(alpha_guess)
    if omega <= 0.0:
        raise ValueError(f"omega_guess must be positive, got {omega}")
    cur = _at_alpha(cf, param, alpha)
    residuals = []
    for _ in range(MAX_NEWTON):
        f, flam, falpha = _root_data(cur, 1j * omega, param)
        res = _smin(_as_matrix(charfn_eval(cur, 1j * omega)))
        residuals.append(res)
        if res < RES_TOL * (1.0 + abs(omega)):
            break
        jac = np.array(
            [[-flam.imag, falpha.real], [flam.real, falpha.imag]]
        )
        detj = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(detj) < 1e-14 * (1e-30 + abs(flam) * abs(falpha)):
            raise SingularityError(
                f"Newton Jacobian is singular at (omega, {param}) = "
                f"({omega:.6g}, {alpha:.6g}): transversality or simplicity "
                "failure at the root"
            )
        step = np.linalg.solve(jac, [-f.real, -f.imag])
        omega += step[0]
        alpha += step[1]
        if not (math.isfinite(omega) and math.isfinite(alpha)):
            raise ConvergenceError("Newton iterate became non-finite")
        if omega <= 0.0:
            raise ConvergenceError(
                f"omega collapsed to {omega:.3g} <= 0 during the iteration"
            )
        cur = cur.with_param(param, alpha)
    else:
        raise ConvergenceError(
            f"no critical point within {MAX_NEWTON} iterations "
            f"(residual {residuals[-1]:.2e})"
        )
    return hopf_point(cur, param, omega, alpha, k_max, tuple(residuals))


def transversality(cf, hopf: HopfPoint) -> float:
    """Re(D1 Delta^{-1} D2 Delta) at the critical pair; for systems the
    normalized pairing Re(q . D2 Delta p) with q . D1 Delta p = 1."""
    return _transversality(_at_alpha(cf, hopf.param, hopf.alpha), hopf.omega,
                           hopf.param)


def nonresonance(cf, hopf: HopfPoint, k_max: int = 10) -> ResonanceVerdict:
    """Scan the margins of Delta at k*i*omega for k in {0, 2, ..., k_max};
    for discretized problems additionally sweep the collocation spectrum
    for any non-critical eigenvalue within 1e-6 of the imaginary axis."""
    return _nonresonance_verdict(
        _at_alpha(cf, hopf.param, hopf.alpha), hopf.omega, k_max
    )


def lyapunov_c(system, hopf: HopfPoint) -> complex:
    """First Lyapunov coefficient from the three-term formula, for the delay
    equation or a collocation system."""
    cur = _at_alpha(system, hopf.param, hopf.alpha)
    return _lyapunov(cur, hopf.omega)


def direction_a2(hopf: HopfPoint) -> float:
    """Branch direction coefficient Re(c)/sigma."""
    if hopf.sigma == 0.0:
        raise SingularityError(
            "transversality value is zero: the branch direction is undefined"
        )
    return hopf.c.real / hopf.sigma


def _null3(jac: np.ndarray) -> np.ndarray:
    """Unit kernel direction of a real 2x3 Jacobian, largest entry positive."""
    _, _, vh = np.linalg.svd(jac)
    t = vh[-1]
    if t[np.argmax(np.abs(t))] < 0:
        t = -t
    return t


class _CurveSpace:
    """Shared evaluation context for one continuation run."""

    def __init__(self, model, names, n):
        self.model = model
        self.names = names
        self.n = n

    def build(self, u, guess):
        m = self.model.with_params(
            **{self.names[0]: float(u[0]), self.names[1]: float(u[1])}
        )
        cf = make_system(m, self.n, equilibrium_solve(m, guess=guess))
        return cf, cf.equilibrium

    def fj(self, cf, u):
        """Newton function value, its real 2x3 Jacobian in (p1, p2, omega),
        the root residual, and the simplicity measure at u."""
        lam = 1j * u[2]
        delta = _as_matrix(charfn_eval(cf, lam))
        dl = _as_matrix(charfn_dlambda(cf, lam))
        d1 = _as_matrix(charfn_dalpha(cf, lam, self.names[0]))
        d2 = _as_matrix(charfn_dalpha(cf, lam, self.names[1]))
        if cf.dim == 1:
            f, fl = delta[0, 0], dl[0, 0]
            f1, f2 = d1[0, 0], d2[0, 0]
        else:
            adj = _adjugate(delta)
            f = complex(np.linalg.det(delta))
            fl = complex(np.trace(adj @ dl))
            f1 = complex(np.trace(adj @ d1))
            f2 = complex(np.trace(adj @ d2))
        jac = np.array(
            [[f1.real, f2.real, -fl.imag], [f1.imag, f2.imag, fl.real]]
        )
        return f, jac, _smin(delta), _smin(dl)

    def correct(self, u_pred, tang, guess):
        """Newton with the arclength constraint tang . (u - u_pred) = 0;
        returns None on any failure so the caller can shrink the step."""
        u = np.array(u_pred, dtype=float)
        for it in range(1, 11):
            if u[2] <= 0.0 or not np.all(np.isfinite(u)):
                return None
            try:
                cf, xbar = self.build(u, guess)
                f, jac, res, simp = self.fj(cf, u)
            except ChebddeError:
                return None
            if res < CURVE_TOL * (1.0 + abs(u[2])):
                return u, xbar, res, it - 1, simp
            aug = np.vstack([jac, tang])
            rhs = -np.array([f.real, f.imag, tang @ (u - u_pred)])
            try:
                du = np.linalg.solve(aug, rhs)
            except np.linalg.LinAlgError:
                return None
            u = u + du
        return None


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
    space = _CurveSpace(base, names, n)
    u0 = np.array(
        [float(base.params[names[0]]), float(base.params[names[1]]),
         float(start.omega)]
    )
    cf0, xbar0 = space.build(u0, None)
    f0, jac0, res0, simp0 = space.fj(cf0, u0)
    if not res0 < CURVE_TOL * (1.0 + abs(u0[2])):
        raise ConvergenceError(
            f"initial point does not satisfy the defining equations "
            f"(residual {res0:.2e})"
        )
    tangent = _null3(jac0)
    half = max(0, (int(max_points) - 1) // 2)

    def walk(direction):
        pts, steps, diags = [], [], []
        prev = u0
        tang = direction * tangent
        h = abs(step)
        guess = xbar0
        while len(pts) < half:
            got = None
            while got is None:
                u_pred = prev + h * tang
                got = space.correct(u_pred, tang, guess)
                if got is None:
                    h *= 0.5
                    if h < STEP_FLOOR:
                        raise ContinuationError(
                            "continuation step underflow near a singular "
                            f"point after {len(pts)} points",
                            last_point=tuple(float(v) for v in prev),
                        )
            u_new, guess, res, its, simp = got
            ds = float(np.linalg.norm(u_new - prev))
            if ds < 1e-12:
                raise ContinuationError(
                    "corrector collapsed onto the previous point",
                    last_point=tuple(float(v) for v in prev),
                )
            tang = (u_new - prev) / ds
            pts.append(u_new)
            steps.append(ds)
            diags.append(CurveDiag(residual=res, iterations=its, simplicity=simp))
            prev = u_new
            if its <= 4:
                h = min(h * 2.0, 4.0 * abs(step))
        return pts, steps, diags

    backward = walk(-math.copysign(1.0, step))
    forward = walk(math.copysign(1.0, step))
    points = backward[0][::-1] + [u0] + forward[0]
    diags = (
        backward[2][::-1]
        + [CurveDiag(residual=res0, iterations=0, simplicity=simp0)]
        + forward[2]
    )
    steps = [0.0] + [
        float(np.linalg.norm(b - a)) for a, b in zip(points, points[1:])
    ]
    return StabilityCurve(
        names=names,
        points=np.array(points),
        steps=np.array(steps),
        diagnostics=tuple(diags),
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


def convergence_study(model, param: str, fixed, n_list, omega_guess=None,
                      alpha_guess=None, reference=None, k_max: int = 10):
    """Locate the critical point at every degree in n_list and tabulate the
    errors against a reference, plus the bounded-away-from-zero diagnostics.

    reference selects the comparison point: "analytic" uses the exact
    characteristic function, "finest" the largest degree in n_list, and
    None tries the analytic route first with a fallback to the finest
    degree. Rows for degrees where the search fails carry the error code
    instead of aborting the study.
    """
    base = model.with_params(**dict(fixed or {}))
    if param not in base.params:
        raise UnknownSymbolError(f"unknown parameter {param!r}")
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if alpha_guess is None:
        alpha_guess = float(base.params[param])
    if omega_guess is None:
        omega_guess = _seed_omega(base, max(n_list))
    if reference not in (None, "analytic", "finest"):
        raise ValueError(f"unknown reference mode {reference!r}")

    points = {}

    def locate(n):
        if n not in points:
            points[n] = find_hopf(make_system(base, n), param, omega_guess,
                                  alpha_guess, k_max)
        return points[n]

    ref = None
    if reference in (None, "analytic"):
        try:
            ref = locate(None)
        except ChebddeError:
            if reference == "analytic":
                raise
    if ref is None:
        ref = locate(max(n_list))

    rows = []
    for n in n_list:
        try:
            h = locate(n)
        except ChebddeError as exc:
            rows.append(
                StudyRow(
                    n=n,
                    alpha_err=math.nan,
                    omega_err=math.nan,
                    a2_err=math.nan,
                    sigma=math.nan,
                    simplicity=math.nan,
                    nonres_margin=math.nan,
                    failure=exc.code,
                )
            )
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
