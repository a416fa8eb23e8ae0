"""Chebyshev extremal meshes on [-1, 0], barycentric Lagrange interpolation
and the pseudospectral differentiation matrix.

The mesh carries the full node set theta_0 = 0 > theta_1 > ... > theta_n = -1.
Differentiation is split into the square matrix D acting on the tail values
(theta_1..theta_n) and the column d0 multiplying the head value, which is the
form every consumer of the discretization needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "DiffOp",
    "make_mesh",
    "lagrange_eval",
    "diff_matrix",
    "interpolate",
    "lebesgue_constant",
]


@dataclass(frozen=True)
class Mesh:
    """Chebyshev extremal nodes theta_j = (cos(j*pi/n) - 1)/2 on [-1, 0]
    with barycentric weights (arbitrary common scaling; only ratios matter).
    """

    n: int
    nodes: np.ndarray
    bary_weights: np.ndarray


@dataclass(frozen=True)
class DiffOp:
    """Differentiation data on the reduced mesh.

    D[i-1, j-1] is the derivative of the j-th Lagrange basis polynomial at
    theta_i (i, j = 1..n); d0[i-1] is the derivative of the 0-th basis
    polynomial there. Since the basis sums to one, d0 == -D @ ones.
    """

    D: np.ndarray
    d0: np.ndarray


def make_mesh(n: int) -> Mesh:
    """Build the degree-n Chebyshev extremal mesh on [-1, 0].

    Weights come from the node products, scaled by the inverse capacity of
    the interval (1/4) to keep magnitudes O(1); degrees beyond a few hundred
    are outside the intended regime.
    """
    if n < 1:
        raise ValueError(f"mesh degree must be >= 1, got {n}")
    j = np.arange(n + 1)
    nodes = (np.cos(j * np.pi / n) - 1.0) / 2.0

    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / np.prod(4.0 * diff, axis=1)
    weights /= np.max(np.abs(weights))
    return Mesh(n=n, nodes=nodes, bary_weights=weights)


def _bary_coeffs(nodes: np.ndarray, weights: np.ndarray, theta) -> np.ndarray:
    """Row of barycentric cardinal values ell_j(theta), exact at nodes."""
    d = theta - nodes
    hit = np.nonzero(d == 0.0)[0]
    out = np.zeros(len(nodes), dtype=np.result_type(theta, float))
    if hit.size:
        out[hit[0]] = 1.0
        return out
    t = weights / d
    out[:] = t / np.sum(t)
    return out


def lagrange_eval(mesh: Mesh, j: int, theta: float) -> float:
    """Value of the j-th Lagrange basis polynomial at theta (barycentric
    second form with an exact-hit branch)."""
    if not 0 <= j <= mesh.n:
        raise ValueError(f"basis index {j} outside 0..{mesh.n}")
    return float(_bary_coeffs(mesh.nodes, mesh.bary_weights, float(theta))[j])


def diff_matrix(mesh: Mesh) -> DiffOp:
    """Differentiation matrix on the mesh, split as (d0 | D).

    Off-diagonal entries are (w_j/w_i)/(theta_i - theta_j); diagonals by
    negative row sums of the full (n+1)-point matrix, which makes the
    derivative of constants exactly zero.
    """
    th = mesh.nodes
    w = mesh.bary_weights
    diff = th[:, None] - th[None, :]
    np.fill_diagonal(diff, 1.0)
    full = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(full, 0.0)
    np.fill_diagonal(full, -np.sum(full, axis=1))
    return DiffOp(D=full[1:, 1:].copy(), d0=full[1:, 0].copy())


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
