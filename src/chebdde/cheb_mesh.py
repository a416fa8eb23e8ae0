"""Chebyshev extremal meshes on [-1, 0] with their barycentric weights, and
the pseudospectral differentiation matrix built from them.

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
    "diff_matrix",
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
