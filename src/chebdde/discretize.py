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
for charfn_det and the Hopf paths, one update per delay over the
linearization's [C_k | dC_k/dalpha_j] slots.

Lag solves go through numpy.linalg.solve (LAPACK's gesv), whose bits do not
depend on the BLAS thread count; no command but the degree-n chart imports
scipy.linalg, which is most of a one-shot run's start-up time and memory.
One factorization per shift gives v and v': the solve against [D 1 | I]
returns x = (D - lambda I)^{-1} D 1 and the inverse, which the conditioning
guard measures and which turns x' = (D - lambda I)^{-1} x into one product.
A Hopf diagnosis factors all of its shifts in one stacked call. One SVD
answers every question about a singular Delta: det Delta and its
derivatives, the residual and the kernel pair. For a scalar model Delta is
1 x 1, and its smallest singular value is computed in the closed form
LAPACK's SVD reduces to, so it is the same number without the call.

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
from .errors import ConditioningError, ConvergenceError, UnknownSymbolError
from .model import DdeModel, LinearPart, _at_point

__all__ = [
    "PsSystem",
    "make_system",
    "assemble_An",
    "rhs",
    "charfn_det",
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
    """Solve a x = b with one LU factorization of a, or of each matrix of a
    stack (LAPACK's gesv, through numpy.linalg.solve); each batch of new
    lag-solve shifts calls it once."""
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
    # lambda -> (lag solve at lambda, (D - lambda I)^{-1}), filled by _factor
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
        if hit is None:
            _require_degree(self, "lag_solve")
            if not cmath.isfinite(lam):
                raise ValueError("array must not contain infs or NaNs")
            rcond = _factor(self, [lam])[lam]
            hit = self._solves.get(lam)
            if hit is None:
                raise ConditioningError(
                    f"(D - lambda I) is numerically singular at lambda={lam} "
                    f"(rcond={rcond:.2e}); lambda sits near a spurious eigenvalue of D"
                )
        return hit[0]

    def lag_values(self, lam: complex, order: int = 0) -> list:
        """Lag factor v_k(lambda) (order 0) or its derivative v_k'(lambda)
        (order 1) for every delay: exponentials for the delay equation; at a
        degree the interpolated lag solve, whose derivative (D - lambda I)^{-1}
        x is one product with the inverse the lag solve kept."""
        if self.n is None:
            return delta0_lags(self.model.delays, lam, order)
        lam = complex(lam)
        x = self.lag_solve(lam)
        head = 1.0
        if order == 1:
            x, head = self._solves[lam][1] @ x, 0.0
        heads, tails = self._lag[:2]
        return [h * head + t @ x for h, t in zip(heads, tails)]


def _factor(ps: PsSystem, shifts) -> dict:
    """Factor D - lambda I at every finite uncached shift in one lu_factor
    call on their stack (stacked gesv gives each shift the bits of its own
    call) and cache (x, inverse) at each whose reciprocal 1-norm condition
    number is at least 1 / COND_LIMIT; returns {shift: rcond}, rcond 0 for
    the whole stack when LAPACK meets an exact zero pivot. lag_solve is the
    one-shift case and raises for a shift left uncached."""
    lams = [lam for lam in dict.fromkeys(map(complex, shifts))
            if lam not in ps._solves and cmath.isfinite(lam)]
    if not lams:
        return {}
    _, _, rhs, diag, off = ps._lag
    shift = np.array(lams)
    try:
        sols = lu_factor(ps.diff.D - shift[:, None, None] * _identity(ps.n), rhs)
    except np.linalg.LinAlgError:  # an exact zero pivot
        return dict.fromkeys(lams, 0.0)
    # contiguous: a BLAS product rounds a strided operand differently
    xs, invs = sols[:, :, 0].copy(), sols[:, :, 1:].copy()
    norms = (off + np.abs(diag - shift[:, None])).max(axis=1)
    rconds = (1.0 / (norms * np.abs(invs).sum(axis=1).max(axis=1))).tolist()
    if len(ps._solves) > 512:
        ps._solves.clear()
    for lam, x, inv, rcond in zip(lams, xs, invs, rconds):
        if rcond >= 1.0 / COND_LIMIT:  # NaN is refused too
            ps._solves[lam] = (x, inv)
    return dict(zip(lams, rconds))


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
    rows are the model-independent differentiation blocks (d0 | D) x I_d.
    Each block is the broadcast product np.kron forms, signed zeros and
    all: the top row adds row_k[j] C_k per delay onto zeros, and the lower
    rows multiply out op[K:] x I_d."""
    _require_degree(ps, "assemble_An")
    d, n = ps.dim, ps.n
    k = len(ps.model.delays)
    a = np.zeros(((n + 1) * d, (n + 1) * d))
    top = a[:d].reshape(d, n + 1, d)
    for row, mat in zip(ps.op[:k], ps.linear.mats):
        top += row[:, None] * mat[:, None, :]
    np.multiply(ps.op[k:, None, :, None], _identity(d)[:, None, :],
                out=a[d:].reshape(n, d, n + 1, d))
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


def _jet(ps: PsSystem, lam: complex, params=(), slope: bool = True) -> tuple:
    """Delta(lambda), its lambda-derivative (None unless slope) and a lazy
    iterator over its derivatives in the named parameters, as d x d arrays:
    the one place Delta is assembled. out -= stack_k v_k(lambda) per delay
    from [lambda I, 0, ...] gives Delta and every analytic parameter slot;
    a caller checks Delta before a fold's difference quotient runs."""
    lam = complex(lam)
    stack = ps.linear.stack
    out = np.zeros(stack.shape[1:], dtype=complex)
    np.multiply(lam, _identity(ps.dim, complex), out=out[0])
    for slots, val in zip(stack, ps.lag_values(lam)):
        out -= slots * val
    dl = None
    if slope:
        dl = _identity(ps.dim, complex).copy()
        for slots, val in zip(stack, ps.lag_values(lam, 1)):
            dl -= slots[0] * val
    return out[0], dl, (_dalpha(ps, lam, out, name) for name in params)


def _dalpha(ps: PsSystem, lam: complex, out, name: str) -> np.ndarray:
    """Delta's derivative at lambda in one parameter: its slot of the jet's
    out, or at a fold a central difference of Delta rebuilt on either side."""
    names = ps.linear.names
    if names is not None and name in names:
        return out[1 + names.index(name)]
    if name not in ps.model.params:
        raise UnknownSymbolError(f"unknown parameter {name!r}")
    alpha = float(ps.model.params[name])
    h = 1e-6 * max(1.0, abs(alpha))
    hi = _jet(ps.with_param(name, alpha + h), lam, slope=False)[0]
    lo = _jet(ps.with_param(name, alpha - h), lam, slope=False)[0]
    return (hi - lo) / (2.0 * h)


def charfn_det(ps: PsSystem, lam: complex) -> complex:
    """det Delta(lambda), with Delta(lambda) = lambda I - sum_k C_k v_k(lambda)
    (= Delta itself for scalar models)."""
    val = _jet(ps, lam, slope=False)[0]
    return complex(val[0, 0]) if ps.dim == 1 else complex(np.linalg.det(val))


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
