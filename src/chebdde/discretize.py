"""Spectral ODE discretization of a delay equation, and the characteristic
function that the delay equation and its discretization share.

The DDE x'(t) = f(x(t - tau_0), ..., x(t - tau_K)) on histories over [-1, 0]
is replaced by an ODE on n+1 Chebyshev nodes: node 0 carries the genuine
dynamics, nodes 1..n collocate d/dtheta so the tail transports the history.

Both problems have the characteristic function
Delta(lambda) = lambda I - sum_k C_k v_k(lambda), and only the lag factors
v_k differ: e^{-lambda tau_k} for the delay equation, and for the degree-n
ODE the value at -tau_k of the polynomial interpolating
(1, (D - lambda I)^{-1} D 1). The eigenvalues of the assembled matrix A_n are
exactly the roots of Delta_n. PsSystem is the model at one parameter point
for either problem (make_system(model) is the delay equation itself); the
charfn_* functions evaluate Delta with its lambda- and parameter-derivatives
for both, and at a degree the eigenvectors on both sides and a resolvent
that never forms (lambda I - A_n) are available too.

State layout is (y_0, y_1, ..., y_n) blocked by node, each block of size d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from ._expr import compile_rhs
from .analytic import delta0_lags
from .cheb_mesh import Mesh, DiffOp, _bary_coeffs, diff_matrix, make_mesh
from .errors import (
    ConditioningError,
    ConvergenceError,
    EvalDomainError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from .model import DdeModel, LinearPart, equilibrium_solve, linearize

__all__ = [
    "PsSystem",
    "make_system",
    "assemble_An",
    "rhs",
    "charfn_eval",
    "charfn_det",
    "charfn_dlambda",
    "charfn_dalpha",
    "eigvec_right",
    "eigvec_left",
    "resolvent_apply",
    "projection_apply",
    "eigenvalues",
    "replicate",
]

#: refuse lag solves when the condition estimate of (D - lambda I) exceeds this
COND_LIMIT = 1e14


@lru_cache(maxsize=64)
def _operators(n: int, delays: tuple) -> tuple:
    """Mesh, differentiation blocks and state operator at degree n, built
    once and shared by every system with these delays, so read-only.

    The (K + n) x (n + 1) state operator stacks the K lag rows ell(-tau_k)
    on the tail block (d0 | D), so one product gives every lag value and
    every tail derivative.
    """
    mesh = make_mesh(n)
    diff = diff_matrix(mesh)
    lag_rows = np.array(
        [_bary_coeffs(mesh.nodes, mesh.bary_weights, -float(tau)) for tau in delays]
    )
    op = np.vstack([lag_rows, np.column_stack([diff.d0, diff.D])])
    for arr in (mesh.nodes, mesh.bary_weights, diff.D, diff.d0, op):
        arr.flags.writeable = False
    return mesh, diff, op


@dataclass(frozen=True, eq=False)
class PsSystem:
    """The model at one parameter point: its equilibrium and linearization,
    and at a degree n the collocation operators. n is None for the delay
    equation itself, whose lag factors are exponentials."""

    model: DdeModel
    n: Optional[int]
    equilibrium: np.ndarray
    linear: LinearPart
    mesh: Optional[Mesh]
    diff: Optional[DiffOp]
    op: Optional[np.ndarray] = field(repr=False)
    # lambda -> (LU factors of D - lambda I, lag solve at lambda)
    _lu: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.model.dim

    @cached_property
    def rhs_fn(self) -> Callable:
        """The model rhs compiled for time stepping, on first use: analysis
        at many parameter points never evaluates it."""
        return compile_rhs(self.model.rhs, self.model.params, len(self.model.delays))

    def with_param(self, name: str, value: float) -> "PsSystem":
        """Rebuild at a changed parameter: the equilibrium is re-solved from
        the current one, so the linearization tracks its drift."""
        model = self.model.with_params(**{name: value})
        xbar = equilibrium_solve(model, guess=self.equilibrium)
        return make_system(model, self.n, xbar)

    def lag_solve(self, lam: complex) -> np.ndarray:
        """Cached x(lambda) = (D - lambda I)^{-1} D 1 with a conditioning guard."""
        lam = complex(lam)
        hit = self._lu.get(lam)
        if hit is not None:
            return hit[1]
        mat = self.diff.D - lam * np.eye(self.n)
        anorm = np.linalg.norm(mat, 1)
        lu, piv = lu_factor(mat.astype(complex))
        rcond, info = zgecon(lu, anorm)
        if info != 0 or rcond < 1.0 / COND_LIMIT:
            raise ConditioningError(
                f"(D - lambda I) is numerically singular at lambda={lam} "
                f"(rcond={rcond:.2e}); lambda sits near a spurious eigenvalue of D"
            )
        x = lu_solve((lu, piv), -self.diff.d0)  # D 1 = -d0
        if len(self._lu) > 512:
            self._lu.clear()
        self._lu[lam] = ((lu, piv), x)
        return x

    def lag_values(self, lam: complex, order: int = 0) -> list:
        """Lag factor v_k(lambda) (order 0) or its derivative v_k'(lambda)
        (order 1) for every delay: exponentials for the delay equation; at a
        degree the interpolated lag solve, whose derivative is one more
        solve with the same LU factors."""
        if self.n is None:
            return delta0_lags(self.model.delays, lam, order)
        lam = complex(lam)
        x = self.lag_solve(lam)
        head = 1.0
        if order == 1:
            x, head = lu_solve(self._lu[lam][0], x), 0.0
        return [
            row[0] * head + row[1:] @ x
            for row in self.op[: len(self.model.delays)]
        ]


def make_system(model: DdeModel, n: Optional[int] = None, equilibrium=None) -> PsSystem:
    """The model at its current parameters, collocated at degree n, or the
    delay equation itself when n is None; the equilibrium is solved for
    when not given."""
    if n is not None and n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    xbar = (
        np.asarray(equilibrium, dtype=float)
        if equilibrium is not None
        else equilibrium_solve(model)
    )
    mesh = diff = op = None
    if n is not None:
        mesh, diff, op = _operators(n, model.delays)
    return PsSystem(model, n, xbar, linearize(model, xbar), mesh, diff, op)


def replicate(xbar, n: int) -> np.ndarray:
    """Constant state (xbar, ..., xbar) in the blocked layout."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    return np.tile(xbar, n + 1)


def assemble_An(ps: PsSystem) -> np.ndarray:
    """Dense linearized matrix; top block row couples the delays, the lower
    rows are the model-independent differentiation blocks (-D1 | D) x I_d."""
    d = ps.model.dim
    k = len(ps.model.delays)
    size = (ps.n + 1) * d
    a = np.zeros((size, size))
    for row, mat in zip(ps.op[:k], ps.linear.mats):
        a[:d] += np.kron(row, mat)
    a[d:] = np.kron(ps.op[k:], np.eye(d))
    return a


def rhs(ps: PsSystem, state) -> np.ndarray:
    """Full nonlinear vector field: one product with the precomputed state
    operator gives the lag values at -tau_k (node 0 evaluates the model on
    them) and the differentiated tail (nodes 1..n)."""
    k = len(ps.model.delays)
    z = ps.op.dot(np.asarray(state, dtype=float).reshape(ps.n + 1, ps.model.dim))
    out = np.empty((ps.n + 1, ps.model.dim))
    try:
        out[0] = ps.rhs_fn(z[:k])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalDomainError(str(exc), "model rhs at node 0") from None
    out[1:] = z[k:]
    return out.reshape(-1)


def _combine(ps: PsSystem, out: np.ndarray, mats, vals):
    """out - sum_k mats_k vals_k; a scalar for one-dimensional models."""
    for mat, val in zip(mats, vals):
        out -= mat * val
    return out[0, 0] if ps.dim == 1 else out


def charfn_eval(ps: PsSystem, lam: complex):
    """Delta(lambda) = lambda I - sum_k C_k v_k(lambda); a scalar for
    one-dimensional models."""
    lam = complex(lam)
    start = lam * np.eye(ps.dim).astype(complex)
    return _combine(ps, start, ps.linear.mats, ps.lag_values(lam))


def charfn_det(ps: PsSystem, lam: complex) -> complex:
    """det Delta(lambda) (= Delta itself for scalar models)."""
    val = charfn_eval(ps, lam)
    return complex(val) if ps.dim == 1 else complex(np.linalg.det(val))


def charfn_dlambda(ps: PsSystem, lam: complex):
    """Analytic lambda-derivative I - sum_k C_k v_k'(lambda)."""
    start = np.eye(ps.dim).astype(complex)
    return _combine(ps, start, ps.linear.mats, ps.lag_values(lam, 1))


def charfn_dalpha(ps: PsSystem, lam: complex, param: str):
    """Parameter derivative of Delta.

    Uses registered analytic dC_k/dalpha matrices when available; otherwise
    (at a fold) a central difference of the rebuilt characteristic function,
    which captures the induced motion of the equilibrium.
    """
    lam = complex(lam)
    derivs = ps.linear.param_derivs
    if derivs is not None and param in derivs:
        start = np.zeros((ps.dim, ps.dim), dtype=complex)
        return _combine(ps, start, derivs[param], ps.lag_values(lam))
    if param not in ps.model.params:
        raise UnknownSymbolError(f"unknown parameter {param!r}")
    alpha = float(ps.model.params[param])
    h = 1e-6 * max(1.0, abs(alpha))
    hi = charfn_eval(ps.with_param(param, alpha + h), lam)
    lo = charfn_eval(ps.with_param(param, alpha - h), lam)
    return (hi - lo) / (2.0 * h)


def kernel_vector(mat: np.ndarray) -> np.ndarray:
    """Unit-norm right null vector (smallest singular direction), with the
    largest-modulus entry made real positive for determinism."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    _, _, vh = np.linalg.svd(mat)
    vec = vh[-1].conj()
    pivot = vec[np.argmax(np.abs(vec))]
    return vec * (abs(pivot) / pivot)


def _as_matrix(val) -> np.ndarray:
    """A characteristic-function value as a d x d array, also for d = 1."""
    return np.atleast_2d(np.asarray(val, dtype=complex))


def eigvec_right(ps: PsSystem, lam: complex, p_star=None) -> np.ndarray:
    """Eigenvector (p_star, p_star x_1, ..., p_star x_n) of A_n at lambda."""
    lam = complex(lam)
    delta = _as_matrix(charfn_eval(ps, lam))
    if p_star is None:
        p_star = np.ones(1) if ps.dim == 1 else kernel_vector(delta)
    p_star = np.asarray(p_star, dtype=complex)
    res = np.linalg.norm(delta @ p_star)
    if res > 1e-8 * (1.0 + abs(lam)) * np.linalg.norm(p_star):
        raise ValueError(
            f"lambda={lam} is not a characteristic root (|Delta p|={res:.2e})"
        )
    x = ps.lag_solve(lam)
    return np.concatenate([p_star, np.outer(x, p_star).reshape(-1)])


def _adjugate(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    if d == 1:
        return np.ones((1, 1), dtype=complex)
    if d == 2:
        return np.array(
            [[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]], dtype=complex
        )
    adj = np.empty_like(mat, dtype=complex)
    for i in range(d):
        for j in range(d):
            minor = np.delete(np.delete(mat, i, 0), j, 1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _simplicity_margin(ps: PsSystem, lam: complex) -> float:
    """|d/dlambda det Delta_n| at the root: trace of adj(Delta) D_1 Delta,
    which for a scalar is just |D_1 Delta|. Stays finite as Delta degenerates,
    unlike det(Delta) inv(Delta)."""
    dl = charfn_dlambda(ps, lam)
    if ps.dim == 1:
        return abs(dl)
    delta = _as_matrix(charfn_eval(ps, lam))
    return abs(np.trace(_adjugate(delta) @ np.atleast_2d(dl)))


def eigvec_left(ps: PsSystem, lam: complex, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint eigenvector of A_n at a simple root, scaled so q . p = 1 in the
    bilinear (unconjugated) pairing."""
    lam = complex(lam)
    if _simplicity_margin(ps, lam) < 1e-10 * (1.0 + abs(lam)):
        raise SimplicityError(
            f"characteristic root {lam} is not numerically simple"
        )
    d, n = ps.dim, ps.n
    if p is None:
        p = eigvec_right(ps, lam)
    delta = _as_matrix(charfn_eval(ps, lam))
    q_star = np.ones(1) if d == 1 else kernel_vector(delta.T)
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


def resolvent_apply(ps: PsSystem, lam: complex, zeta) -> np.ndarray:
    """Solve (lambda I - A_n) h = zeta with two lag solves and a d x d solve."""
    lam = complex(lam)
    d, n = ps.dim, ps.n
    zeta = np.asarray(zeta, dtype=complex).reshape(n + 1, d)
    delta = _as_matrix(charfn_eval(ps, lam))
    smin = np.linalg.svd(delta, compute_uv=False)[-1]
    if smin < 1e-10 * (1.0 + abs(lam)):
        raise SingularityError(
            f"lambda={lam} is an eigenvalue: Delta_n is singular"
        )
    lu = lu_factor(lam * np.eye(n) - ps.diff.D.astype(complex))
    x_part = lu_solve(lu, zeta[1:])
    x_eig = lu_solve(lu, ps.diff.d0.astype(complex))  # equals (D-lam I)^{-1} D 1
    head_rhs = zeta[0].copy()
    for row, mat in zip(ps.op[: len(ps.linear.mats)], ps.linear.mats):
        head_rhs += mat @ (row[1:] @ x_part)
    h0 = np.linalg.solve(delta, head_rhs)
    tail = x_part + np.outer(x_eig, h0)
    return np.concatenate([h0, tail.reshape(-1)])


def projection_apply(ps: PsSystem, lam: complex, zeta) -> np.ndarray:
    """Spectral projection onto the eigenspace at a simple root lambda."""
    p = eigvec_right(ps, lam)
    q = eigvec_left(ps, lam, p)
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    return (q @ zeta) * p


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Dense spectrum via LAPACK (balancing, Hessenberg, shifted QR), sorted
    by descending real part, ties by descending imaginary part."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"QR eigenvalue iteration failed: {exc}") from None
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]
