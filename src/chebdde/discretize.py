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
for either problem (make_system(model) is the delay equation itself); it
solves for its equilibrium on first read, which time stepping never does.
One jet per shift assembles Delta with its lambda- and parameter-derivatives
for the charfn_* functions and the Hopf paths. At a degree the eigenvectors
on both sides and a resolvent that never forms (lambda I - A_n) follow too.

Lag solves go through numpy.linalg.solve (LAPACK's gesv), whose bits do not
depend on the BLAS thread count; no command but the degree-n chart imports
scipy.linalg, which is most of a one-shot run's start-up time and memory.
One solve per shift gives the lag solve and the inverse that its
conditioning guard measures. One SVD answers every question about a
singular Delta: det Delta and its derivatives, the residual and the kernel
pair. For a scalar model Delta is 1 x 1, and its smallest singular value is
computed in the closed form LAPACK's SVD reduces to, so it is the same
number without the call.

State layout is (y_0, y_1, ..., y_n) blocked by node, each block of size d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from ._expr import compile_rhs
from .analytic import delta0_lags
from .cheb_mesh import Mesh, DiffOp, _bary_coeffs, diff_matrix, make_mesh
from .errors import (
    ConditioningError,
    ConvergenceError,
    SimplicityError,
    SingularityError,
    UnknownSymbolError,
)
from .model import DdeModel, LinearPart, _at_point

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

#: refuse lag solves when the 1-norm condition number of (D - lambda I) exceeds this
COND_LIMIT = 1e14


@lru_cache(maxsize=64)
def _operators(n: int, delays: tuple) -> tuple:
    """Mesh, differentiation blocks, state operator and lag-solve constants
    at degree n, built once and shared by every system with these delays,
    so read-only.

    The (K + n) x (n + 1) state operator stacks the K lag rows ell(-tau_k)
    on the tail block (d0 | D), so one product gives every lag value and
    every tail derivative. The lag-solve constants are the lag rows' heads
    and their tails as complex arrays (so a product with a lag solve casts
    nothing), the right-hand sides [D 1 | I] = [-d0 | I] and, for the
    1-norm of D - lambda I, the diagonal of D and the column sums of |D|
    off it.
    """
    mesh = make_mesh(n)
    diff = diff_matrix(mesh)
    lag_rows = np.array(
        [_bary_coeffs(mesh.nodes, mesh.bary_weights, -float(tau)) for tau in delays]
    )
    op = np.vstack([lag_rows, np.column_stack([diff.d0, diff.D])])
    off = np.abs(diff.D)
    np.fill_diagonal(off, 0.0)
    lag = (lag_rows[:, 0], lag_rows[:, 1:].astype(complex),
           np.column_stack([-diff.d0, np.eye(n)]).astype(complex),
           np.diagonal(diff.D).copy(), off.sum(axis=0))
    for arr in (mesh.nodes, mesh.bary_weights, diff.D, diff.d0, op, *lag):
        arr.flags.writeable = False
    return mesh, diff, op, lag


@lru_cache(maxsize=64)
def _identity(n: int, dtype=float) -> np.ndarray:
    """The n x n identity, built once per size and dtype, so read-only."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def lu_factor(a, b) -> np.ndarray:
    """Solve a x = b with one LU factorization of a (LAPACK's gesv, through
    numpy.linalg.solve); each lag solve at a new shift calls it once."""
    return np.linalg.solve(a, b)


def _require_degree(ps: "PsSystem", what: str):
    """Refuse a degree-only operation on the delay equation itself."""
    if ps.n is None:
        raise ValueError(
            f"{what} needs a collocation degree n; make_system(model) is the "
            "delay equation itself, build the system with make_system(model, n)"
        )


@dataclass(frozen=True, eq=False)
class PsSystem:
    """The model at one parameter point: its equilibrium and linearization,
    and at a degree n the collocation operators. n is None for the delay
    equation itself, whose lag factors are exponentials."""

    model: DdeModel
    n: Optional[int]
    mesh: Optional[Mesh]
    diff: Optional[DiffOp]
    op: Optional[np.ndarray] = field(repr=False)
    # the lag-solve constants of _operators
    _lag: tuple = field(default=(), repr=False)
    # model._at_point's keywords: the known equilibrium, or the guess
    _seed: dict = field(default_factory=dict, repr=False)
    # lambda -> (D - lambda I, lag solve at lambda)
    _solves: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.model.dim

    @cached_property
    def _point(self) -> tuple:
        """(equilibrium, linearization, Newton steps), solved on first read:
        time stepping needs neither."""
        return _at_point(self.model, **self._seed)

    equilibrium = property(lambda self: self._point[0])
    linear = property(lambda self: self._point[1])

    @cached_property
    def rhs_fn(self) -> Callable:
        """The compile_rhs writer of the model rhs, on first use: analysis
        at many parameter points never evaluates it."""
        return compile_rhs(self.model.rhs, self.model.params, len(self.model.delays))

    def with_param(self, name: str, value: float) -> "PsSystem":
        """Rebuild at a changed parameter: the equilibrium is re-solved from
        the current one, so the linearization tracks its drift."""
        model = self.model.with_params(**{name: value})
        return _system(model, self.n, guess=self.equilibrium)

    def lag_solve(self, lam: complex) -> np.ndarray:
        """Cached x(lambda) = (D - lambda I)^{-1} D 1, refused when the
        reciprocal 1-norm condition number of D - lambda I is below
        1 / COND_LIMIT; one solve gives x and the inverse that measures it."""
        lam = complex(lam)
        hit = self._solves.get(lam)
        if hit is not None:
            return hit[1]
        _require_degree(self, "lag_solve")
        if not cmath.isfinite(lam):
            raise ValueError("array must not contain infs or NaNs")
        _, _, rhs, diag, off = self._lag
        mat = self.diff.D - lam * _identity(self.n)
        try:
            sol = lu_factor(mat, rhs)
        except np.linalg.LinAlgError:  # an exact zero pivot
            rcond = 0.0
        else:
            norm = (off + np.abs(diag - lam)).max()
            rcond = 1.0 / (norm * np.abs(sol[:, 1:]).sum(axis=0).max())
        if not rcond >= 1.0 / COND_LIMIT:  # NaN is refused too
            raise ConditioningError(
                f"(D - lambda I) is numerically singular at lambda={lam} "
                f"(rcond={rcond:.2e}); lambda sits near a spurious eigenvalue of D"
            )
        # contiguous: a BLAS dot product rounds a strided vector differently
        x = sol[:, 0].copy()
        if len(self._solves) > 512:
            self._solves.clear()
        self._solves[lam] = (mat, x)
        return x

    def lag_values(self, lam: complex, order: int = 0) -> list:
        """Lag factor v_k(lambda) (order 0) or its derivative v_k'(lambda)
        (order 1) for every delay: exponentials for the delay equation; at a
        degree the interpolated lag solve, whose derivative is one more
        solve with the same matrix."""
        if self.n is None:
            return delta0_lags(self.model.delays, lam, order)
        lam = complex(lam)
        x = self.lag_solve(lam)
        head = 1.0
        if order == 1:
            x, head = np.linalg.solve(self._solves[lam][0], x), 0.0
        heads, tails = self._lag[:2]
        return [h * head + t @ x for h, t in zip(heads, tails)]


def make_system(model: DdeModel, n: Optional[int] = None, equilibrium=None) -> PsSystem:
    """The model at its current parameters, collocated at degree n, or the
    delay equation itself when n is None; the equilibrium is solved for
    on first read when not given."""
    if n is not None and n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if equilibrium is None:
        return _system(model, n)
    return _system(model, n, equilibrium=np.asarray(equilibrium, dtype=float))


def _system(model: DdeModel, n: Optional[int], **seed) -> PsSystem:
    """Every PsSystem is built here; seed as for model._at_point."""
    mesh = diff = op = None
    lag = ()
    if n is not None:
        mesh, diff, op, lag = _operators(n, model.delays)
    return PsSystem(model, n, mesh, diff, op, lag, seed)


def replicate(xbar, n: int) -> np.ndarray:
    """Constant state (xbar, ..., xbar) in the blocked layout."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    return np.tile(xbar, n + 1)


def assemble_An(ps: PsSystem) -> np.ndarray:
    """Dense linearized matrix; top block row couples the delays, the lower
    rows are the model-independent differentiation blocks (-D1 | D) x I_d."""
    _require_degree(ps, "assemble_An")
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
    them) and the differentiated tail (nodes 1..n). integrate forms its
    later stages with the same writer in place; this is the one-shot form."""
    _require_degree(ps, "rhs")
    k = len(ps.model.delays)
    z = ps.op.dot(np.asarray(state, dtype=float).reshape(ps.n + 1, ps.model.dim))
    out = np.empty((ps.n + 1, ps.model.dim))
    ps.rhs_fn(z[:k], out[0])
    out[1:] = z[k:]
    return out.reshape(-1)


def _combine(out: np.ndarray, mats, vals) -> np.ndarray:
    """out - sum_k mats_k vals_k."""
    for mat, val in zip(mats, vals):
        out -= mat * val
    return out


def _jet(ps: PsSystem, lam: complex, params=(), slope: bool = True) -> tuple:
    """Delta(lambda), its lambda-derivative (None unless slope) and its
    derivatives in the named parameters (see _dalpha), as d x d arrays: the
    one place Delta is assembled, from one lag_values(lambda) and one
    lag_values(lambda, 1)."""
    lam = complex(lam)
    mats, vals = ps.linear.mats, ps.lag_values(lam)
    delta = _combine(lam * _identity(ps.dim, complex), mats, vals)
    dl = (_combine(_identity(ps.dim, complex).copy(), mats, ps.lag_values(lam, 1))
          if slope else None)
    return delta, dl, _dalpha(ps, lam, vals, params)


def _dalpha(ps: PsSystem, lam: complex, vals, params) -> list:
    """Delta's derivatives at lambda in the named parameters, given the lag
    values there: analytic, or at a fold a central difference of Delta
    rebuilt on either side."""
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
        hi = _jet(ps.with_param(name, alpha + h), lam, slope=False)[0]
        lo = _jet(ps.with_param(name, alpha - h), lam, slope=False)[0]
        dalpha.append((hi - lo) / (2.0 * h))
    return dalpha


def charfn_eval(ps: PsSystem, lam: complex):
    """Delta(lambda) = lambda I - sum_k C_k v_k(lambda); a scalar for
    one-dimensional models."""
    val = _jet(ps, lam, slope=False)[0]
    return val[0, 0] if ps.dim == 1 else val


def charfn_det(ps: PsSystem, lam: complex) -> complex:
    """det Delta(lambda) (= Delta itself for scalar models)."""
    val = charfn_eval(ps, lam)
    return complex(val) if ps.dim == 1 else complex(np.linalg.det(val))


def charfn_dlambda(ps: PsSystem, lam: complex):
    """Analytic lambda-derivative I - sum_k C_k v_k'(lambda)."""
    val = _jet(ps, lam)[1]
    return val[0, 0] if ps.dim == 1 else val


def charfn_dalpha(ps: PsSystem, lam: complex, param: str):
    """Parameter derivative of Delta: analytic along the equilibrium branch,
    a central difference of the rebuilt Delta at a fold."""
    val = _jet(ps, lam, (param,), slope=False)[2][0]
    return val[0, 0] if ps.dim == 1 else val


#: the kernel pair (p, q) of every 1 x 1 Delta, shared, so read-only
_UNIT = np.ones(1, dtype=complex)
_UNIT.flags.writeable = False


def _root_data(delta, *mats) -> tuple:
    """f = det Delta, its derivatives tr(adj(Delta) m) along each m of mats,
    the smallest singular value and the unit kernel pair (p, q) with
    Delta p = 0 = q^T Delta: closed forms for a scalar, else one SVD
    U S V^H, with det Delta = det(U V^H) prod(s) and adj(Delta) =
    det(U V^H) V diag(prod_{j != i} s_j) U^H, finite as Delta degenerates.
    The products run on Python floats, so an overflow is inf, unwarned."""
    if delta.shape[0] == 1:
        return delta[0, 0], [m[0, 0] for m in mats], _smin(delta), _UNIT, _UNIT
    u, s, vh = np.linalg.svd(delta)
    phase = complex(np.linalg.det(u @ vh))
    s = s.tolist()
    cof = [math.prod(s[:i] + s[i + 1:]) for i in range(len(s))]
    adj = phase * (vh.conj().T * cof) @ u.conj().T
    traces = [complex(np.trace(adj @ m)) for m in mats]
    return phase * math.prod(s), traces, s[-1], vh[-1].conj(), u[:, -1].conj()


def _smin(mat: np.ndarray) -> float:
    """Smallest singular value, as np.linalg.svd gives it, bit for bit.

    For a 1 x 1 block LAPACK's gesdd reduces z to the real Householder
    beta, dlapy3(|Re z|, |Im z|, 0) = w sqrt((x/w)^2 + (y/w)^2) with
    w = max(x, y), so that form is computed directly; outside
    [1e-130, 1e130] gesdd first rescales the matrix, so there, and for
    non-finite z, the SVD itself runs.
    """
    if mat.shape == (1, 1):
        z = complex(mat[0, 0])
        x, y = abs(z.real), abs(z.imag)
        if x + y == 0.0:
            return 0.0
        w = max(x, y)
        if 1e-130 <= w <= 1e130 and math.isfinite(x + y):
            x, y = x / w, y / w
            return w * math.sqrt(x * x + y * y)
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


def eigvec_right(ps: PsSystem, lam: complex) -> np.ndarray:
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


def eigvec_left(ps: PsSystem, lam: complex, p: Optional[np.ndarray] = None) -> np.ndarray:
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


def resolvent_apply(ps: PsSystem, lam: complex, zeta) -> np.ndarray:
    """Solve (lambda I - A_n) h = zeta with the lag solve's matrix and a d x d solve."""
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
    x_part = np.asfortranarray(-np.linalg.solve(ps._solves[lam][0], zeta[1:]))
    head_rhs = zeta[0].copy()
    for row, mat in zip(ps._lag[1], ps.linear.mats):
        head_rhs += mat @ (row @ x_part)
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
