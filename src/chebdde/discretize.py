"""Spectral ODE discretization of a delay equation.

The DDE x'(t) = f(x(t - tau_0), ..., x(t - tau_K)) on histories over [-1, 0]
is replaced by an ODE on n+1 Chebyshev nodes: node 0 carries the genuine
dynamics, nodes 1..n collocate d/dtheta so the tail transports the history.
Eigenvalues of the assembled matrix A_n are exactly the roots of a rational
characteristic function Delta_n, evaluated here together with its lambda- and
parameter-derivatives, eigenvectors on both sides, and a resolvent that never
forms (lambda I - A_n).

State layout is (y_0, y_1, ..., y_n) blocked by node, each block of size d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from ._expr import compile_rhs
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
    "CharFnN",
    "make_system",
    "make_charfn",
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
    "kernel_vector",
    "replicate",
]

#: refuse lag solves when the condition estimate of (D - lambda I) exceeds this
COND_LIMIT = 1e14


def _lag_rows(mesh: Mesh, delays) -> np.ndarray:
    """Row k holds the barycentric cardinal values ell_j(-tau_k)."""
    return np.array(
        [_bary_coeffs(mesh.nodes, mesh.bary_weights, -float(tau)) for tau in delays]
    )


@dataclass(frozen=True)
class PsSystem:
    """A model, its equilibrium data and the collocation operators at one n."""

    model: DdeModel
    linear: LinearPart
    equilibrium: np.ndarray
    n: int
    mesh: Mesh
    diff: DiffOp
    rhs_fn: Callable = field(repr=False, compare=False)
    #: (K + n) x (n + 1) state operator: the K lag rows ell(-tau_k) stacked
    #: on the tail block (d0 | D), so one product gives every lag value and
    #: every tail derivative
    op: np.ndarray = field(repr=False, compare=False)


def make_system(model: DdeModel, n: int, equilibrium=None) -> PsSystem:
    """Discretize a model at degree n, solving for the equilibrium if needed."""
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    xbar = (
        np.asarray(equilibrium, dtype=float)
        if equilibrium is not None
        else equilibrium_solve(model)
    )
    mesh = make_mesh(n)
    diff = diff_matrix(mesh)
    op = np.vstack(
        [_lag_rows(mesh, model.delays), np.column_stack([diff.d0, diff.D])]
    )
    return PsSystem(
        model=model,
        linear=linearize(model, xbar),
        equilibrium=xbar,
        n=n,
        mesh=mesh,
        diff=diff,
        rhs_fn=compile_rhs(model.rhs, model.params, len(model.delays)),
        op=op,
    )


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


class CharFnN:
    """Rational characteristic function Delta_n of the collocation ODE.

    Delta_n(lambda) = lambda I - sum_k C_k v_k(lambda), where v_k is the value
    at -tau_k of the polynomial interpolating (1, (D - lambda I)^{-1} D 1).
    Lag solves are LU-factored once per lambda and cached.
    """

    def __init__(
        self,
        linear: LinearPart,
        mesh: Mesh,
        diff: DiffOp,
        model: Optional[DdeModel] = None,
        equilibrium=None,
    ):
        self.linear = linear
        self.mesh = mesh
        self.diff = diff
        self.model = model
        self.equilibrium = (
            None if equilibrium is None else np.asarray(equilibrium, dtype=float)
        )
        self.n = mesh.n
        self.dim = linear.dim
        self._d_one = -diff.d0  # D applied to the all-ones vector
        self._basis_rows = dict(
            zip(linear.delays, _lag_rows(mesh, linear.delays))
        )
        self._cache = {}

    def with_param(self, name: str, value: float) -> "CharFnN":
        """Rebuild at a changed parameter: the equilibrium is re-solved from
        the current one, so the linearization tracks its drift."""
        if self.model is None:
            raise UnknownSymbolError(
                "parameter derivatives need a model-backed characteristic function"
            )
        model = self.model.with_params(**{name: value})
        xbar = equilibrium_solve(model, guess=self.equilibrium)
        return CharFnN(
            linear=linearize(model, xbar),
            mesh=self.mesh,
            diff=self.diff,
            model=model,
            equilibrium=xbar,
        )

    def lag_solve(self, lam: complex) -> np.ndarray:
        """Cached x(lambda) = (D - lambda I)^{-1} D 1 with a conditioning guard."""
        lam = complex(lam)
        hit = self._cache.get(lam)
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
        x = lu_solve((lu, piv), self._d_one)
        if len(self._cache) > 512:
            self._cache.clear()
        self._cache[lam] = ((lu, piv), x)
        return x

    def _lu(self, lam: complex):
        lam = complex(lam)
        self.lag_solve(lam)
        return self._cache[lam][0]

    def _as_result(self, mat: np.ndarray):
        return mat[0, 0] if self.dim == 1 else mat


def make_charfn(model: DdeModel, n: int, equilibrium=None) -> CharFnN:
    xbar = (
        np.asarray(equilibrium, dtype=float)
        if equilibrium is not None
        else equilibrium_solve(model)
    )
    mesh = make_mesh(n)
    return CharFnN(
        linear=linearize(model, xbar),
        mesh=mesh,
        diff=diff_matrix(mesh),
        model=model,
        equilibrium=xbar,
    )


def _delay_values(cf: CharFnN, tail: np.ndarray, head) -> dict:
    """Interpolant of (head, tail) evaluated at -tau_k for every delay."""
    vals = {}
    for tau in cf.linear.delays:
        row = cf._basis_rows[tau]
        vals[tau] = row[0] * head + row[1:] @ tail
    return vals


def charfn_eval(cf: CharFnN, lam: complex):
    """Delta_n(lambda); a scalar for one-dimensional models."""
    lam = complex(lam)
    x = cf.lag_solve(lam)
    vals = _delay_values(cf, x, 1.0)
    delta = lam * np.eye(cf.dim).astype(complex)
    for tau, mat in cf.linear.terms:
        delta -= mat * vals[tau]
    return cf._as_result(delta)


def charfn_det(cf: CharFnN, lam: complex) -> complex:
    """det Delta_n(lambda) (= Delta_n itself for scalar models)."""
    val = charfn_eval(cf, lam)
    return complex(val) if cf.dim == 1 else complex(np.linalg.det(val))


def charfn_dlambda(cf: CharFnN, lam: complex):
    """Analytic lambda-derivative of Delta_n."""
    lam = complex(lam)
    x = cf.lag_solve(lam)
    x2 = lu_solve(cf._lu(lam), x)
    vals = _delay_values(cf, x2, 0.0)
    out = np.eye(cf.dim).astype(complex)
    for tau, mat in cf.linear.terms:
        out -= mat * vals[tau]
    return cf._as_result(out)


def charfn_dalpha(cf: CharFnN, lam: complex, param: str):
    """Parameter derivative of Delta_n.

    Uses registered analytic dC_k/dalpha matrices when available; otherwise a
    central difference of the rebuilt characteristic function, which captures
    the induced motion of the equilibrium.
    """
    lam = complex(lam)
    derivs = cf.linear.param_derivs
    if derivs is not None and param in derivs:
        x = cf.lag_solve(lam)
        vals = _delay_values(cf, x, 1.0)
        out = np.zeros((cf.dim, cf.dim), dtype=complex)
        for tau, dmat in zip(cf.linear.delays, derivs[param]):
            out -= np.asarray(dmat) * vals[tau]
        return cf._as_result(out)
    if cf.model is None or param not in cf.model.params:
        raise UnknownSymbolError(f"unknown parameter {param!r}")
    alpha = float(cf.model.params[param])
    h = 1e-6 * max(1.0, abs(alpha))
    hi = charfn_eval(cf.with_param(param, alpha + h), lam)
    lo = charfn_eval(cf.with_param(param, alpha - h), lam)
    return (hi - lo) / (2.0 * h)


def kernel_vector(mat: np.ndarray) -> np.ndarray:
    """Unit-norm right null vector (smallest singular direction), with the
    largest-modulus entry made real positive for determinism."""
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    _, _, vh = np.linalg.svd(mat)
    vec = vh[-1].conj()
    pivot = vec[np.argmax(np.abs(vec))]
    return vec * (abs(pivot) / pivot)


def _delta_matrix(cf: CharFnN, lam: complex) -> np.ndarray:
    val = charfn_eval(cf, lam)
    return np.atleast_2d(np.asarray(val, dtype=complex))


def eigvec_right(cf: CharFnN, lam: complex, p_star=None) -> np.ndarray:
    """Eigenvector (p_star, p_star x_1, ..., p_star x_n) of A_n at lambda."""
    lam = complex(lam)
    delta = _delta_matrix(cf, lam)
    if p_star is None:
        p_star = np.ones(1) if cf.dim == 1 else kernel_vector(delta)
    p_star = np.asarray(p_star, dtype=complex)
    res = np.linalg.norm(delta @ p_star)
    if res > 1e-8 * (1.0 + abs(lam)) * np.linalg.norm(p_star):
        raise ValueError(
            f"lambda={lam} is not a characteristic root (|Delta p|={res:.2e})"
        )
    x = cf.lag_solve(lam)
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


def _simplicity_margin(cf: CharFnN, lam: complex) -> float:
    """|d/dlambda det Delta_n| at the root: trace of adj(Delta) D_1 Delta,
    which for a scalar is just |D_1 Delta|. Stays finite as Delta degenerates,
    unlike det(Delta) inv(Delta)."""
    dl = charfn_dlambda(cf, lam)
    if cf.dim == 1:
        return abs(dl)
    delta = _delta_matrix(cf, lam)
    return abs(np.trace(_adjugate(delta) @ np.atleast_2d(dl)))


def eigvec_left(cf: CharFnN, lam: complex, p: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint eigenvector of A_n at a simple root, scaled so q . p = 1 in the
    bilinear (unconjugated) pairing."""
    lam = complex(lam)
    if _simplicity_margin(cf, lam) < 1e-10 * (1.0 + abs(lam)):
        raise SimplicityError(
            f"characteristic root {lam} is not numerically simple"
        )
    d, n = cf.dim, cf.n
    if p is None:
        p = eigvec_right(cf, lam)
    delta = _delta_matrix(cf, lam)
    q_star = np.ones(1) if d == 1 else kernel_vector(delta.T)
    # rows of R couple q_star back through the delay blocks at each tail node
    r = np.zeros((n, d), dtype=complex)
    for tau, mat in cf.linear.terms:
        row = cf._basis_rows[tau]
        r += np.outer(row[1:], np.asarray(mat, dtype=complex).T @ q_star)
    tail = np.linalg.solve(lam * np.eye(n) - cf.diff.D.T, r)
    q = np.concatenate([q_star, tail.reshape(-1)])
    scale = q @ p
    if abs(scale) < 1e-12 * (1.0 + np.linalg.norm(q) * np.linalg.norm(p)):
        raise SimplicityError(
            f"left/right eigenvectors at {lam} are bilinearly orthogonal"
        )
    return q / scale


def resolvent_apply(cf: CharFnN, lam: complex, zeta) -> np.ndarray:
    """Solve (lambda I - A_n) h = zeta with two lag solves and a d x d solve."""
    lam = complex(lam)
    d, n = cf.dim, cf.n
    zeta = np.asarray(zeta, dtype=complex).reshape(n + 1, d)
    delta = _delta_matrix(cf, lam)
    smin = np.linalg.svd(delta, compute_uv=False)[-1]
    if smin < 1e-10 * (1.0 + abs(lam)):
        raise SingularityError(
            f"lambda={lam} is an eigenvalue: Delta_n is singular"
        )
    lu = lu_factor(lam * np.eye(n) - cf.diff.D.astype(complex))
    x_part = lu_solve(lu, zeta[1:])
    x_eig = lu_solve(lu, -cf._d_one.astype(complex))  # equals (D-lam I)^{-1} D 1
    head_rhs = zeta[0].copy()
    for tau, mat in cf.linear.terms:
        row = cf._basis_rows[tau]
        head_rhs += mat @ (row[1:] @ x_part)
    h0 = np.linalg.solve(delta, head_rhs)
    tail = x_part + np.outer(x_eig, h0)
    return np.concatenate([h0, tail.reshape(-1)])


def projection_apply(cf: CharFnN, lam: complex, zeta) -> np.ndarray:
    """Spectral projection onto the eigenspace at a simple root lambda."""
    p = eigvec_right(cf, lam)
    q = eigvec_left(cf, lam, p)
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
