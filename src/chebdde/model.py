"""DDE model representation.

A model is a d-dimensional system x'(t) = f(x(t-tau_0), ..., x(t-tau_K)) with
point delays scaled so the largest is 1, right-hand sides given as expression
trees, and a real parameter map. Equilibria, linearizations and the second
and third derivative tensors the Hopf normal form contracts come from
symbolic derivatives of the expression trees, compiled once per model (the
third on first use), so they are exact derivatives, not difference
quotients, and the equilibrium Newton's last Jacobian is the linearization.
The Newton runs on Python floats; for a scalar model its step and the
equilibrium drift divide by the 1 x 1 collapsed Jacobian with the
operations LAPACK's solve makes, so they are the same numbers without its
call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from ._expr import (
    Expr,
    Param,
    State,
    compile_rows,
    diff,
    eval_jet3,
    param_names,
    parse_expr,
    state_symbols,
    to_text,
)
from ._jets import Jet3
from .errors import ConvergenceError, EvalDomainError, UnknownSymbolError

__all__ = [
    "DdeModel",
    "LinearPart",
    "Jet3",
    "parse_expr",
    "eval_jet3",
    "to_text",
    "make_model",
    "load_model",
    "get_model",
    "blowflies",
    "fluidflow",
    "equilibrium_solve",
    "linearize",
    "param_jacobians",
]


class _Derivatives:
    """The rhs and its first three derivatives at a constant state,
    differentiated symbolically and compiled once per model, the third on
    first use.

    Slot i = lag * dim + comp stands for x_comp(t - tau_lag). Parameter
    values are arguments, so one instance serves every parameter point.
    """

    def __init__(self, dim: int, n_lags: int, trees, names):
        self.shape = (dim, n_lags, dim)
        self.names = tuple(names)
        self.texts = tuple(to_text(tree) for tree in trees)
        self._slots = [State(comp, lag) for lag in range(n_lags) for comp in range(dim)]
        params = [Param(name) for name in self.names]
        first, second, self._hess = [], [], []
        for tree in trees:
            grad = [diff(tree, s) for s in self._slots]
            hess = [diff(g, s) for g in grad for s in self._slots]
            first.append([tree, *grad])
            second.append(
                [diff(tree, a) for a in params]
                + hess
                + [diff(g, a) for g in grad for a in params]
            )
            self._hess.append(hess)
        self._first = compile_rows(first, self.names)
        self._second = compile_rows(second, self.names)

    def _rows(self, fns, x, params) -> list:
        """fns at the constant state x, one list of Python floats per
        component; EvalDomainError where one fails or is complex."""
        x = [float(v) for v in x]
        p = [float(params[name]) for name in self.names]
        rows = []
        for fn, text in zip(fns, self.texts):
            try:
                rows.append(fn(x, p))
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise EvalDomainError(str(exc), text) from None
        for row, text in zip(rows, self.texts):
            # Python's ** gives a complex number for a fractional power of a
            # negative base instead of raising
            if complex in map(type, row):
                raise EvalDomainError("complex result", text)
        return rows

    def first(self, x, params):
        """f, shape (d,), and df/dv, shape (d, K, d) indexed [row, lag, comp]."""
        return self.first_arrays(self._rows(self._first, x, params))

    def first_arrays(self, rows):
        """first()'s arrays from _rows' lists of its compiled rows."""
        rows = np.array(rows, dtype=float)
        return rows[:, 0], rows[:, 1:].reshape(self.shape)

    def second(self, x, params):
        """df/dalpha (d, P), d2f/dv dv' (d, m, m) and d2f/dv dalpha (d, m, P)
        over the m = K d slots and the P parameters."""
        d, n_lags, _ = self.shape
        m, n_par = n_lags * d, len(self.names)
        rows = np.array(self._rows(self._second, x, params), dtype=float)
        f_alpha, rest = rows[:, :n_par], rows[:, n_par:]
        hess = rest[:, : m * m].reshape(d, m, m)
        mixed = rest[:, m * m :].reshape(d, m, n_par)
        return f_alpha, hess, mixed

    @cached_property
    def _third(self):
        rows = [[diff(h, s) for h in hess for s in self._slots] for hess in self._hess]
        return compile_rows(rows, self.names)

    def third(self, x, params):
        """d3f/dv dv' dv'', shape (d, m, m, m) over the m = K d slots;
        compiled on first use."""
        m = len(self._slots)
        rows = np.array(self._rows(self._third, x, params), dtype=float)
        return rows.reshape(-1, m, m, m)


@dataclass(frozen=True)
class DdeModel:
    dim: int
    delays: tuple
    rhs: tuple  # one expression tree per component
    params: dict
    equilibrium_hint: Optional[tuple] = None
    # recomputes the hint after a parameter change (used by the built-ins)
    hint_fn: Optional[Callable[[dict], tuple]] = field(
        default=None, repr=False, compare=False
    )
    # compiled derivatives of rhs; shared by every parameter point
    derivs: Optional[_Derivatives] = field(default=None, repr=False, compare=False)

    def with_params(self, **overrides) -> "DdeModel":
        """New model with some parameter values replaced."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise UnknownSymbolError(f"unknown parameters {sorted(unknown)}")
        params = {**self.params, **overrides}
        hint = self.equilibrium_hint
        if self.hint_fn is not None:
            hint = tuple(self.hint_fn(params))
        return DdeModel(self.dim, self.delays, self.rhs, params, hint, self.hint_fn,
                        self.derivs)


@dataclass(frozen=True)
class LinearPart:
    """Point-delay linear structure sum_k C_k x(t - tau_k) at an equilibrium,
    as one real C-ordered array: stack[k, 0] is C_k and stack[k, 1 + j] the
    analytic d C_k / d alpha_j along the equilibrium branch, j over names.
    At a fold there are no such derivatives: names is None and consumers
    fall back to finite differences."""

    stack: np.ndarray  # (K, 1 + P, d, d), or (K, 1, d, d) at a fold
    names: Optional[tuple] = None

    @cached_property
    def mats(self) -> tuple:
        return tuple(self.stack[:, 0])  # views, one d x d C_k per delay

    @cached_property
    def param_derivs(self) -> Optional[dict]:
        if self.names is None:
            return None
        return {name: tuple(self.stack[:, 1 + j]) for j, name in enumerate(self.names)}


def make_model(
    dim: int,
    delays: Sequence[float],
    rhs: Sequence,
    params: Optional[dict] = None,
    equilibrium_hint: Optional[Sequence[float]] = None,
    hint_fn=None,
) -> DdeModel:
    """Validate and build a model; rhs entries may be text or parsed trees."""
    params = dict(params or {})
    delays = tuple(float(t) for t in delays)
    if not delays or delays[0] != 0.0:
        raise ValueError("delays must start with tau_0 = 0")
    if any(b <= a for a, b in zip(delays, delays[1:])):
        raise ValueError("delays must be strictly increasing")
    if delays[-1] > 1.0:
        raise ValueError("delays must lie in [0, 1] (time scaled to max delay)")
    trees = tuple(e if not isinstance(e, str) else parse_expr(e) for e in rhs)
    if len(trees) != dim:
        raise ValueError(f"expected {dim} rhs expressions, got {len(trees)}")
    for tree in trees:
        for comp, lag in state_symbols(tree):
            if comp >= dim:
                raise UnknownSymbolError(
                    f"state component {comp} out of range for dim {dim}"
                )
            if lag >= len(delays):
                raise UnknownSymbolError(
                    f"delay index {lag} out of range ({len(delays)} delays)"
                )
        missing = param_names(tree) - set(params)
        if missing:
            raise UnknownSymbolError(f"unbound parameters {sorted(missing)}")
    hint = None if equilibrium_hint is None else tuple(equilibrium_hint)
    if hint_fn is not None and hint is None:
        hint = tuple(hint_fn(params))
    return DdeModel(dim, delays, trees, params, hint, hint_fn,
                    _Derivatives(dim, len(delays), trees, params))


def blowflies(mu: float = 3.0, beta: float = 30.0) -> DdeModel:
    """Scaled blowfly population model x' = -mu x(t) + beta x(t-1) e^{-x(t-1)}
    with the nontrivial equilibrium ln(beta/mu) hinted for beta > mu."""

    def hint(params):
        mu, beta = params["mu"], params["beta"]
        return (math.log(beta / mu) if mu > 0.0 and beta > mu else 0.0,)

    return make_model(
        dim=1,
        delays=(0.0, 1.0),
        rhs=("-mu*x0@0 + beta*x0@1*exp(-x0@1)",),
        params={"mu": mu, "beta": beta},
        hint_fn=hint,
    )


def fluidflow(k: float = 1.5, c: float = 1.5) -> DdeModel:
    """Two-component flow model w' = 1 - k w(t) w(t-1) q(t-1) / 2,
    q' = w(t) - c, with equilibrium (c, 2/(k c^2)).

    As in the fluid TCP/AQM window equation, the marking signal q is read
    one delay back.  The equilibrium loses stability on the Hopf locus
    k c^2 / 2 = omega^2 with omega tan(omega/2) = 1/c."""

    def hint(params):
        try:
            return (params["c"], 2.0 / (params["k"] * params["c"] ** 2))
        except (ZeroDivisionError, OverflowError):
            # no equilibrium exists at k c^2 = 0, and where k c^2 overflows
            # q lies below the float range; the Newton solve decides from here
            return (params["c"], 0.0)

    return make_model(
        dim=2,
        delays=(0.0, 1.0),
        rhs=("1 - k*x0@0*x0@1*x1@1/2", "x0@0 - c"),
        params={"k": k, "c": c},
        hint_fn=hint,
    )


_BUILTINS = {"blowflies": blowflies, "fluidflow": fluidflow}


def load_model(path: str) -> DdeModel:
    """Read a model from a JSON document with fields dim, delays, rhs,
    params and optional equilibrium_hint."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    known = {"dim", "delays", "rhs", "params", "equilibrium_hint"}
    extra = set(doc) - known
    if extra:
        raise ValueError(f"unknown model file keys {sorted(extra)}")
    return make_model(
        dim=int(doc["dim"]),
        delays=doc["delays"],
        rhs=doc["rhs"],
        params=doc.get("params", {}),
        equilibrium_hint=doc.get("equilibrium_hint"),
    )


def get_model(name_or_path: str) -> DdeModel:
    """Resolve a built-in model name or a JSON model file path."""
    if name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]()
    return load_model(name_or_path)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b), bit for bit, without its call for a 1 x 1 a.

    After a 1 x 1 LU, OpenBLAS's getrs divides one right-hand side by the
    pivot (trsv) but multiplies several by its reciprocal, which trsm packs;
    a zero pivot raises LinAlgError, as getrf reports it. The arithmetic is
    on Python floats, which round alike and, like LAPACK, never warn.
    """
    if a.shape != (1, 1):
        return np.linalg.solve(a, b)
    pivot = float(a[0, 0])
    if pivot == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    rhs = b.ravel().tolist()
    if len(rhs) == 1:
        out = [rhs[0] / pivot]
    else:
        recip = 1.0 / pivot
        out = [v * recip for v in rhs]
    return np.array(out).reshape(b.shape)


def _newton(model: DdeModel, guess) -> tuple:
    """The equilibrium Newton loop, on Python floats over the compiled first
    rows: (xbar, df/dv at xbar, steps taken). The step solves the collapsed
    Jacobian (every lag of a component moves alike): for a scalar model by
    the float division _solve makes, for a system by numpy.linalg.solve."""
    if guess is None:
        guess = model.equilibrium_hint or np.zeros(model.dim)
    x = np.asarray(guess, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"guess must have length {model.dim}")
    x, derivs = x.tolist(), model.derivs
    for steps in range(50):
        rows = derivs._rows(derivs._first, x, model.params)
        # max |f| < 1e-12 (1 + max |x|); a NaN fails it
        tol = 1e-12 * (1.0 + max(map(abs, x)))
        if all(abs(row[0]) < tol for row in rows) and not any(map(math.isnan, x)):
            return np.array(x), derivs.first_arrays(rows)[1], steps
        try:
            if model.dim == 1:
                # summed as ndarray.sum does, pairwise from 8 lags on; a
                # zero pivot raises ZeroDivisionError
                lags = rows[0][1:]
                pivot = reduce(add, lags, 0.0) if len(lags) < 8 else np.add.reduce(lags)
                x = [x[0] - rows[0][0] / float(pivot)]
            else:
                f, grad = derivs.first_arrays(rows)
                step = np.linalg.solve(grad.sum(axis=1), f).tolist()
                x = [a - b for a, b in zip(x, step)]
        except (ZeroDivisionError, np.linalg.LinAlgError):
            raise ConvergenceError(
                "singular collapsed Jacobian during equilibrium Newton"
            ) from None
    raise ConvergenceError("equilibrium Newton did not converge in 50 iterations")


def equilibrium_solve(model: DdeModel, guess=None) -> np.ndarray:
    """Newton iteration for a constant solution of the collapsed system."""
    return _newton(model, guess)[0]


def _at_point(model: DdeModel, guess=None, equilibrium=None) -> tuple:
    """(xbar, linearization, Newton steps), xbar given or solved for from
    guess; the first derivatives at xbar are evaluated once, by the Newton's
    final check. EvalDomainError when one is not finite."""
    if equilibrium is None:
        xbar, grad, steps = _newton(model, guess)
    else:
        xbar, steps = np.asarray(equilibrium, dtype=float), 0
        grad = model.derivs.first(xbar, model.params)[1]
    if not np.isfinite(grad).all():
        row = model.derivs.texts[np.nonzero(~np.isfinite(grad))[0][0]]
        raise EvalDomainError("non-finite derivative at the equilibrium", row)
    names = model.derivs.names
    try:
        total = _param_jacobians(model, xbar, grad)
    except np.linalg.LinAlgError:
        total, names = np.zeros(grad.shape + (0,)), None
    # the slots [C_k | d C_k / d alpha_j], C-ordered as LinearPart says
    d, n_lags, _, n_par = total.shape
    stack = np.empty((n_lags, 1 + n_par, d, d))
    stack[:, 0], stack[:, 1:] = grad.transpose(1, 0, 2), total.transpose(1, 3, 0, 2)
    return xbar, LinearPart(stack, names), steps


def linearize(model: DdeModel, xbar) -> LinearPart:
    """Delay-block Jacobians C_k of the rhs at the constant state xbar.

    Also registers the analytic parameter derivatives of the C_k along the
    equilibrium branch through xbar; at a fold point (singular collapsed
    Jacobian) they are omitted and consumers fall back to differencing.
    """
    return _at_point(model, equilibrium=xbar)[1]


def param_jacobians(model: DdeModel, xbar) -> dict:
    """Total derivatives d C_k / d alpha of the delay-block Jacobians along
    the equilibrium branch through xbar, one tuple of d x d matrices per
    parameter name. Raises numpy.linalg.LinAlgError at a fold, where the
    branch has no smooth parametrization."""
    derivs = linearize(model, xbar).param_derivs
    if derivs is None:
        raise np.linalg.LinAlgError("Singular matrix")
    return derivs


def _param_jacobians(model: DdeModel, xbar, grad) -> np.ndarray:
    # the mixed derivative d2f/dv dalpha plus the chain term through the
    # equilibrium drift d xbar / d alpha = -A^{-1} df/dalpha, with A = the
    # collapsed Jacobian grad.sum(axis=1), singular at a fold; the result
    # is indexed [row, lag, comp, parameter]
    d, n_lags = model.dim, len(model.delays)
    if not model.params:
        return np.zeros((d, n_lags, d, 0))
    f_alpha, hess, mixed = model.derivs.second(xbar, model.params)
    drift = -_solve(grad.sum(axis=1), f_alpha)
    # the drift moves every lag of a component alike
    hess_collapsed = hess.reshape(d, -1, n_lags, d).sum(axis=2)
    return (mixed + hess_collapsed @ drift).reshape(d, n_lags, d, -1)
