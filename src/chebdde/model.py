"""DDE model representation.

A model is a d-dimensional system x'(t) = f(x(t-tau_0), ..., x(t-tau_K)) with
point delays scaled so the largest is 1, right-hand sides given as expression
trees, and a real parameter map. Equilibria, linearizations and the second
and third derivative tensors the Hopf normal form contracts come from
symbolic derivatives of the expression trees, compiled once per model (the
third on first use), so they are exact derivatives, not difference
quotients, and the equilibrium Newton's last Jacobian is the linearization.
For a scalar model the Newton step and the equilibrium drift divide by the
1 x 1 collapsed Jacobian with the operations LAPACK's solve makes, so they
are the same numbers without its call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
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

    def _rows(self, fns, x, params) -> np.ndarray:
        x = [float(v) for v in x]
        p = [float(params[name]) for name in self.names]
        rows = []
        for fn, text in zip(fns, self.texts):
            try:
                rows.append(fn(x, p))
            except (ZeroDivisionError, ValueError, OverflowError) as exc:
                raise EvalDomainError(str(exc), text) from None
        try:
            return np.array(rows, dtype=float)
        except TypeError:
            # Python's ** gives a complex number for a fractional power of a
            # negative base instead of raising
            for row, text in zip(rows, self.texts):
                if any(isinstance(v, complex) for v in row):
                    raise EvalDomainError("complex result", text) from None
            raise

    def first(self, x, params):
        """f, shape (d,), and df/dv, shape (d, K, d) indexed [row, lag, comp]."""
        rows = self._rows(self._first, x, params)
        return rows[:, 0], rows[:, 1:].reshape(self.shape)

    def second(self, x, params):
        """df/dalpha (d, P), d2f/dv dv' (d, m, m) and d2f/dv dalpha (d, m, P)
        over the m = K d slots and the P parameters."""
        d, n_lags, _ = self.shape
        m, n_par = n_lags * d, len(self.names)
        rows = self._rows(self._second, x, params)
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
        return self._rows(self._third, x, params).reshape(-1, m, m, m)


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
        return DdeModel(
            dim=self.dim,
            delays=self.delays,
            rhs=self.rhs,
            params=params,
            equilibrium_hint=hint,
            hint_fn=self.hint_fn,
            derivs=self.derivs,
        )


@dataclass(frozen=True)
class LinearPart:
    """Point-delay linear structure sum_k C_k x(t - tau_k) at an equilibrium.

    param_derivs optionally registers analytic d C_k / d alpha matrices per
    parameter name; when absent, consumers fall back to finite differences.
    """

    mats: tuple  # one d x d array per delay of the model
    param_derivs: Optional[dict] = None


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
    return DdeModel(
        dim=dim,
        delays=delays,
        rhs=trees,
        params=params,
        equilibrium_hint=hint,
        hint_fn=hint_fn,
        derivs=_Derivatives(dim, len(delays), trees, params),
    )


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
    """The equilibrium Newton loop: (xbar, df/dv at xbar, steps taken)."""
    if guess is None:
        guess = model.equilibrium_hint or np.zeros(model.dim)
    x = np.asarray(guess, dtype=float).copy()
    if x.shape != (model.dim,):
        raise ValueError(f"guess must have length {model.dim}")
    for steps in range(50):
        f, grad = model.derivs.first(x, model.params)
        # max |f| < 1e-12 (1 + max |x|) on Python floats; a NaN fails it
        xs = x.tolist()
        tol = 1e-12 * (1.0 + max(map(abs, xs)))
        if all(abs(v) < tol for v in f.tolist()) and not any(map(math.isnan, xs)):
            return x, grad, steps
        try:
            # the collapsed Jacobian: every lag of a component moves alike
            step = _solve(grad.sum(axis=1), f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular collapsed Jacobian during equilibrium Newton"
            ) from None
        x -= step
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
    bad = ~np.isfinite(grad)
    if bad.any():
        row = model.derivs.texts[np.nonzero(bad)[0][0]]
        raise EvalDomainError("non-finite derivative at the equilibrium", row)
    mats = tuple(grad.transpose(1, 0, 2).copy())
    try:
        derivs = _param_jacobians(model, xbar, grad)
    except np.linalg.LinAlgError:
        derivs = None
    return xbar, LinearPart(mats, derivs), steps


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
    return _param_jacobians(model, xbar, model.derivs.first(xbar, model.params)[1])


def _param_jacobians(model: DdeModel, xbar, grad) -> dict:
    # the mixed derivative d2f/dv dalpha plus the chain term through the
    # equilibrium drift d xbar / d alpha = -A^{-1} df/dalpha, with A = the
    # collapsed Jacobian grad.sum(axis=1), singular at a fold
    if not model.params:
        return {}
    d, n_lags = model.dim, len(model.delays)
    f_alpha, hess, mixed = model.derivs.second(xbar, model.params)
    drift = -_solve(grad.sum(axis=1), f_alpha)
    # the drift moves every lag of a component alike
    hess_collapsed = hess.reshape(d, -1, n_lags, d).sum(axis=2)
    total = (mixed + hess_collapsed @ drift).reshape(d, n_lags, d, -1)
    return {
        name: tuple(total[:, lag, :, j].copy() for lag in range(n_lags))
        for j, name in enumerate(model.derivs.names)
    }
