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
"""

from __future__ import annotations

import numpy as np

from chebdde.cheb_mesh import Mesh, _bary_coeffs
from chebdde.errors import SingularityError
from chebdde.model import DdeModel


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
