"""Independent references the tests check the library against.

None of these is on a CLI path: each evaluates a quantity the library
computes another way, over the same library primitives (the barycentric
cardinal row of the mesh and the model's compiled derivative tensors).

- Barycentric Lagrange interpolation on the Chebyshev mesh and a lower
  bound on the reduced basis's Lebesgue constant.
- The second- and third-order forms D^2 f(xbar)(u, v) and
  D^3 f(xbar)(u, v, w) over {(comp, lag): value} directions; the Lyapunov
  coefficient contracts the tensors itself.
- The closed-form eigenvalue crossing speed along the n = 2 Hopf boundary
  of the scalar family x' = b1 x(t) + b2 x(t-1).
- The delay equation's Hopf boundary of that family and the blowfly
  Lyapunov coefficient along it, in closed form with the math module.
- The equilibrium Newton loop on numpy arrays, the parameter derivatives
  of the C_k one d x d copy per delay and parameter, and Delta's jet
  assembled one matrix and one delay at a time: the array forms of the
  float Newton, the stacked linearization and the stacked jet the library
  runs.
- Delta, its lambda- and parameter-derivatives read off the library's jet
  one at a time, the blowfly chart's Lyapunov coefficient alone, and the
  ODE side at a degree: the right and left eigenvectors of A_n extended
  from Delta_n's kernel pair, a resolvent that never forms
  (lambda I - A_n), and the spectral projection; A_n itself by np.kron.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from chebdde.analytic import _chart
from chebdde.cheb_mesh import Mesh, _bary_coeffs
from chebdde.discretize import _jet, _require_degree, _root_data, _smin
from chebdde.errors import (
    ConvergenceError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from chebdde.model import DdeModel, _solve


def lagrange_eval(mesh: Mesh, j: int, theta: float) -> float:
    """Value of the j-th Lagrange basis polynomial at theta (barycentric
    second form with an exact-hit branch)."""
    if not 0 <= j <= mesh.n:
        raise ValueError(f"basis index {j} outside 0..{mesh.n}")
    return float(_bary_coeffs(mesh.nodes, mesh.bary_weights, float(theta))[j])


def interpolate(mesh: Mesh, head, tail_values, theta: float):
    """Evaluate the interpolating polynomial with value `head` at theta_0 = 0
    and values `tail_values` at theta_1..theta_n.

    Componentwise for vector-valued data: head may be a scalar or a length-d
    vector, tail_values then an (n, d) array. Complex data is allowed.
    """
    head = np.asarray(head)
    tail = np.asarray(tail_values)
    if tail.shape[0] != mesh.n:
        raise ValueError(
            f"expected {mesh.n} tail values, got {tail.shape[0]}"
        )
    vals = np.concatenate([head[None, ...], tail], axis=0)
    coeffs = _bary_coeffs(mesh.nodes, mesh.bary_weights, float(theta))
    out = np.tensordot(coeffs, vals, axes=(0, 0))
    if head.ndim == 0:
        return out[()]
    return out


def lebesgue_constant(mesh: Mesh) -> float:
    """Maximum of sum_j |ell~_j(theta)| for the reduced basis on
    {theta_1..theta_n} over a 2048-point grid; a lower bound on the true
    Lebesgue constant."""
    if mesh.n == 1:
        return 1.0
    red = mesh.nodes[1:]
    diff = red[:, None] - red[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(4.0 * diff, axis=1)
    w /= np.max(np.abs(w))

    grid = np.linspace(-1.0, 0.0, 2048)
    best = 0.0
    for theta in grid:
        best = max(best, float(np.sum(np.abs(_bary_coeffs(red, w, theta)))))
    return best


def _slot_vector(model: DdeModel, direction) -> np.ndarray:
    """A {(comp, lag): value} direction over the slots lag * dim + comp."""
    slots = ((comp, lag) for lag in range(len(model.delays)) for comp in range(model.dim))
    return np.array([direction.get(key, 0.0) for key in slots], dtype=complex)


def bilinear_form(model: DdeModel, xbar, u, v) -> np.ndarray:
    """Componentwise second derivative D^2 f(xbar)(u, v) of the full rhs.

    u and v assign a complex value per (comp, lag); since the linear part is
    degree one, this equals the second derivative of the shifted nonlinearity.
    """
    hess = model.derivs.second(xbar, model.params)[1]
    return hess @ _slot_vector(model, v) @ _slot_vector(model, u)


def trilinear_form(model: DdeModel, xbar, u, v, w) -> np.ndarray:
    """Componentwise third derivative D^3 f(xbar)(u, v, w) of the full rhs."""
    w, v, u = (_slot_vector(model, z) for z in (w, v, u))
    return model.derivs.third(xbar, model.params) @ w @ v @ u


def _b1_n2(omega: float) -> tuple:
    """(omega, b1) on the principal n=2 branch 0 < |omega| < 4."""
    w = float(omega)
    if w == 0.0:
        raise ValueError("crossing speed is undefined at omega = 0")
    if not -4.0 < w < 4.0:
        raise ValueError(f"omega={w} outside the principal n=2 branch (-4, 4)")
    w2 = w * w
    if abs(w2 - 16.0) < 1e-12:
        raise SingularityError(f"n=2 boundary singular at omega={w}")
    return w, (7.0 * w2 - 16.0) / (w2 - 16.0)


def lambda_prime_n2(omega: float) -> complex:
    """Eigenvalue crossing speed d lambda / d b2 along the n=2 boundary."""
    w, b1 = _b1_n2(omega)
    return (1j * w - 4.0) / (w * (-2.0 * w + 6j - 2j * b1))


def lambda_prime_n2_re(omega: float) -> float:
    """Closed-form real part of the crossing speed: (14-2 b1)/(4 w^2+(6-2 b1)^2)."""
    w, b1 = _b1_n2(omega)
    return (14.0 - 2.0 * b1) / (4.0 * w * w + (6.0 - 2.0 * b1) ** 2)


def exact_boundary(omega: float) -> tuple:
    """(b1, b2) = (omega cot omega, -omega / sin omega): the delay equation's
    Hopf boundary of x' = b1 x + b2 x(t-1) at root i omega."""
    w = float(omega)
    s = math.sin(w)
    return (w * math.cos(w) / s, -w / s)


def exact_c(omega: float) -> complex:
    """First Lyapunov coefficient of the blowfly equation along the delay
    equation's boundary: c = d3/2 B10 - d2^2/(b1 + b2) B10 + d2^2/2 B20 with
    B10 = e^{-i w} / (1 + b2 e^{-i w}) and
    B20 = e^{-2 i w} / (2 i w - b1 - b2 e^{-2 i w}) B10, where
    d2 = b1 - b2 and d3 = b2 - 2 b1 are the recruitment term's second and
    third derivatives at the equilibrium."""
    w = float(omega)
    b1, b2 = exact_boundary(w)
    d2, d3 = b1 - b2, b2 - 2.0 * b1
    e1, e2 = cmath.exp(-1j * w), cmath.exp(-2j * w)
    b10 = e1 / (1.0 + b2 * e1)
    b20 = e2 / (2j * w - b1 - b2 * e2) * b10
    return 0.5 * d3 * b10 - d2 * d2 / (b1 + b2) * b10 + 0.5 * d2 * d2 * b20


def equilibrium_newton(model: DdeModel, guess=None) -> tuple:
    """(xbar, df/dv at xbar, steps taken) of the equilibrium Newton on numpy
    arrays: each iterate evaluates first(), stops on max |f| below
    1e-12 (1 + max |x|) at a state free of NaN, and steps by solving the
    collapsed Jacobian grad.sum(axis=1)."""
    if guess is None:
        guess = model.equilibrium_hint or np.zeros(model.dim)
    x = np.asarray(guess, dtype=float).copy()
    if x.shape != (model.dim,):
        raise ValueError(f"guess must have length {model.dim}")
    for steps in range(50):
        f, grad = model.derivs.first(x, model.params)
        xs = x.tolist()
        tol = 1e-12 * (1.0 + max(map(abs, xs)))
        if all(abs(v) < tol for v in f.tolist()) and not any(map(math.isnan, xs)):
            return x, grad, steps
        try:
            step = _solve(grad.sum(axis=1), f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular collapsed Jacobian during equilibrium Newton"
            ) from None
        x -= step
    raise ConvergenceError("equilibrium Newton did not converge in 50 iterations")


def param_jacobians_by_name(model: DdeModel, xbar) -> dict:
    """{name: (d C_k / d alpha per delay)} along the equilibrium branch
    through xbar: the mixed derivative plus the collapsed Hessian times the
    drift -A^{-1} df/dalpha, each d x d block copied out on its own."""
    grad = model.derivs.first(xbar, model.params)[1]
    d, n_lags = model.dim, len(model.delays)
    f_alpha, hess, mixed = model.derivs.second(xbar, model.params)
    drift = -_solve(grad.sum(axis=1), f_alpha)
    hess_collapsed = hess.reshape(d, -1, n_lags, d).sum(axis=2)
    total = (mixed + hess_collapsed @ drift).reshape(d, n_lags, d, -1)
    return {
        name: tuple(total[:, lag, :, j].copy() for lag in range(n_lags))
        for j, name in enumerate(model.derivs.names)
    }


def _combine(out: np.ndarray, mats, vals) -> np.ndarray:
    """out - sum_k mats_k vals_k, one delay at a time."""
    for mat, val in zip(mats, vals):
        out -= mat * val
    return out


def combine_jet(ps, lam: complex, params=(), slope: bool = True) -> tuple:
    """(Delta, D_lambda Delta or None, [D_alpha Delta per name]) at lambda,
    each assembled on its own from lambda I (or I, or 0) minus one C_k v_k
    per delay; at a fold, where the linearization has no parameter
    derivatives, a central difference of Delta rebuilt on either side."""
    lam = complex(lam)
    eye = np.eye(ps.dim, dtype=complex)
    mats, vals = ps.linear.mats, ps.lag_values(lam)
    delta = _combine(lam * eye, mats, vals)
    dl = _combine(eye.copy(), mats, ps.lag_values(lam, 1)) if slope else None
    derivs = ps.linear.param_derivs or {}
    dalpha = []
    for name in params:
        if name in derivs:
            start = np.zeros((ps.dim, ps.dim), dtype=complex)
            dalpha.append(_combine(start, derivs[name], vals))
            continue
        if name not in ps.model.params:
            raise UnknownSymbolError(f"unknown parameter {name!r}")
        alpha = float(ps.model.params[name])
        h = 1e-6 * max(1.0, abs(alpha))
        hi = combine_jet(ps.with_param(name, alpha + h), lam, slope=False)[0]
        lo = combine_jet(ps.with_param(name, alpha - h), lam, slope=False)[0]
        dalpha.append((hi - lo) / (2.0 * h))
    return delta, dl, dalpha


def charfn_eval(ps, lam: complex):
    """Delta(lambda) = lambda I - sum_k C_k v_k(lambda); a scalar for
    one-dimensional models."""
    val = _jet(ps, lam, slope=False)[0]
    return val[0, 0] if ps.dim == 1 else val


def charfn_dlambda(ps, lam: complex):
    """Analytic lambda-derivative I - sum_k C_k v_k'(lambda)."""
    val = _jet(ps, lam)[1]
    return val[0, 0] if ps.dim == 1 else val


def charfn_dalpha(ps, lam: complex, param: str):
    """Parameter derivative of Delta: analytic along the equilibrium branch,
    a central difference of the rebuilt Delta at a fold."""
    (val,) = _jet(ps, lam, (param,), slope=False)[2]
    return val[0, 0] if ps.dim == 1 else val


def eigvec_right(ps, lam: complex) -> np.ndarray:
    """Eigenvector (p_star, p_star x_1, ..., p_star x_n) of A_n at lambda,
    with p_star the unit kernel vector of Delta_n(lambda)."""
    _require_degree(ps, "eigvec_right")
    lam = complex(lam)
    _, _, res, p_star, _ = _root_data(_jet(ps, lam, slope=False)[0])
    if res > 1e-8 * (1.0 + abs(lam)):
        raise ValueError(
            f"lambda={lam} is not a characteristic root (|Delta p|={res:.2e})"
        )
    x = ps.lag_solve(lam)
    return np.concatenate([p_star, np.outer(x, p_star).reshape(-1)])


def eigvec_left(ps, lam: complex, p=None) -> np.ndarray:
    """Adjoint eigenvector of A_n at a simple root, scaled so q . p = 1 in the
    bilinear (unconjugated) pairing."""
    _require_degree(ps, "eigvec_left")
    lam = complex(lam)
    delta, dl, _ = _jet(ps, lam)
    # |d/dlambda det Delta_n| at the root
    _, (slope,), _, _, q_star = _root_data(delta, dl)
    if abs(slope) < 1e-10 * (1.0 + abs(lam)):
        raise SimplicityError(
            f"characteristic root {lam} is not numerically simple"
        )
    d, n = ps.dim, ps.n
    if p is None:
        p = eigvec_right(ps, lam)
    # rows of R couple q_star back through the delay blocks at each tail node
    r = np.zeros((n, d), dtype=complex)
    for row, mat in zip(ps.op[: len(ps.linear.mats)], ps.linear.mats):
        r += np.outer(row[1:], np.asarray(mat, dtype=complex).T @ q_star)
    tail = np.linalg.solve(lam * np.eye(n) - ps.diff.D.T, r)
    q = np.concatenate([q_star, tail.reshape(-1)])
    scale = q @ p
    if abs(scale) < 1e-12 * (1.0 + np.linalg.norm(q) * np.linalg.norm(p)):
        raise SimplicityError(
            f"left/right eigenvectors at {lam} are bilinearly orthogonal"
        )
    return q / scale


def resolvent_apply(ps, lam: complex, zeta) -> np.ndarray:
    """Solve (lambda I - A_n) h = zeta with D - lambda I, the lag solve and a
    d x d solve."""
    _require_degree(ps, "resolvent_apply")
    lam = complex(lam)
    d, n = ps.dim, ps.n
    zeta = np.asarray_chkfinite(zeta, dtype=complex).reshape(n + 1, d)
    delta = _jet(ps, lam, slope=False)[0]
    if _smin(delta) < 1e-10 * (1.0 + abs(lam)):
        raise SingularityError(
            f"lambda={lam} is an eigenvalue: Delta_n is singular"
        )
    x_eig = ps.lag_solve(lam)  # (D - lambda I)^{-1} D 1
    # Fortran order: for d > 1 the products below round by memory order
    x_part = np.asfortranarray(-np.linalg.solve(ps.diff.D - lam * np.eye(n), zeta[1:]))
    head_rhs = zeta[0].copy()
    for row, mat in zip(ps._lag[1], ps.linear.mats):
        head_rhs += mat @ (row @ x_part)
    h0 = np.linalg.solve(delta, head_rhs)
    tail = x_part + np.outer(x_eig, h0)
    return np.concatenate([h0, tail.reshape(-1)])


def projection_apply(ps, lam: complex, zeta) -> np.ndarray:
    """Spectral projection onto the eigenspace at a simple root lambda."""
    p = eigvec_right(ps, lam)
    q = eigvec_left(ps, lam, p)
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    return (q @ zeta) * p


def c_blowfly(omega, n=None):
    """First Lyapunov coefficient along the Hopf boundary of the delay
    equation (n None) or of its degree-n collocation ODE; one omega gives a
    complex, an array gives an array.

    One omega alone and in an array may differ in the last bit, since
    numpy's complex multiply rounds differently on scalars and in its array
    loops (exact, omega = 1.58: Re c ends ...6984 alone, ...6995 in one)."""
    w = np.asarray(omega, dtype=float)
    c = _chart(n, w)[2]
    return complex(c) if w.ndim == 0 else c


def assemble_An_kron(ps) -> np.ndarray:
    """A_n by np.kron: the top block row adds kron(row_k, C_k) per delay onto
    zeros, the lower rows are kron(op[K:], I_d)."""
    d = ps.model.dim
    k = len(ps.model.delays)
    size = (ps.n + 1) * d
    a = np.zeros((size, size))
    for row, mat in zip(ps.op[:k], ps.linear.mats):
        a[:d] += np.kron(row, mat)
    a[d:] = np.kron(ps.op[k:], np.eye(d))
    return a
