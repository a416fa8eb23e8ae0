"""DDE model representation.

A model is a d-dimensional system x'(t) = f(x(t-tau_0), ..., x(t-tau_K)) with
point delays scaled so the largest is 1, right-hand sides given as expression
trees, and a real parameter map. Equilibria and linearizations come from
symbolic first and second derivatives of the expression trees, compiled once
per model, so the coefficients are exact derivatives, not difference
quotients. The second- and third-order forms of the Hopf normal form are
still taken with truncated Taylor jets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    "bilinear_form",
    "trilinear_form",
]


class _Derivatives:
    """The rhs and its first and second derivatives at a constant state,
    differentiated symbolically and compiled once per model.

    Slot i = lag * dim + comp stands for x_comp(t - tau_lag). Parameter
    values are arguments, so one instance serves every parameter point.
    """

    def __init__(self, dim: int, n_lags: int, trees, names):
        self.shape = (dim, n_lags, dim)
        self.names = tuple(names)
        self.texts = tuple(to_text(tree) for tree in trees)
        slots = [State(comp, lag) for lag in range(n_lags) for comp in range(dim)]
        params = [Param(name) for name in self.names]
        first, second = [], []
        for tree in trees:
            grad = [diff(tree, s) for s in slots]
            first.append([tree, *grad])
            second.append(
                [diff(tree, a) for a in params]
                + [diff(g, s) for g in grad for s in slots]
                + [diff(g, a) for g in grad for a in params]
            )
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

    def rhs_text(self) -> list:
        return [to_text(e) for e in self.rhs]


@dataclass(frozen=True)
class LinearPart:
    """Point-delay linear structure sum_k C_k x(t - tau_k) at an equilibrium.

    param_derivs optionally registers analytic d C_k / d alpha matrices per
    parameter name; when absent, consumers fall back to finite differences.
    """

    delays: tuple
    mats: tuple  # one d x d array per delay
    param_derivs: Optional[dict] = None

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]

    @property
    def terms(self):
        return tuple(zip(self.delays, self.mats))


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


def collapsed_rhs(model: DdeModel, x) -> np.ndarray:
    """Right-hand side with every lag evaluated at the same constant state."""
    return model.derivs.first(x, model.params)[0]


def equilibrium_solve(model: DdeModel, guess=None) -> np.ndarray:
    """Newton iteration for a constant solution of the collapsed system."""
    if guess is None:
        guess = model.equilibrium_hint
    if guess is None:
        guess = np.zeros(model.dim)
    x = np.asarray(guess, dtype=float).copy()
    if x.shape != (model.dim,):
        raise ValueError(f"guess must have length {model.dim}")
    for _ in range(50):
        f, grad = model.derivs.first(x, model.params)
        if np.max(np.abs(f)) < 1e-12 * (1.0 + np.max(np.abs(x))):
            return x
        try:
            # the collapsed Jacobian: every lag of a component moves alike
            step = np.linalg.solve(grad.sum(axis=1), f)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular collapsed Jacobian during equilibrium Newton"
            ) from None
        x -= step
    raise ConvergenceError("equilibrium Newton did not converge in 50 iterations")


def linearize(model: DdeModel, xbar) -> LinearPart:
    """Delay-block Jacobians C_k of the rhs at the constant state xbar.

    Also registers the analytic parameter derivatives of the C_k along the
    equilibrium branch through xbar; at a fold point (singular collapsed
    Jacobian) they are omitted and consumers fall back to differencing.
    """
    xbar = np.asarray(xbar, dtype=float)
    _, grad = model.derivs.first(xbar, model.params)
    mats = tuple(np.moveaxis(grad, 1, 0).copy())
    try:
        derivs = param_jacobians(model, xbar)
    except np.linalg.LinAlgError:
        derivs = None
    return LinearPart(delays=model.delays, mats=mats, param_derivs=derivs)


def param_jacobians(model: DdeModel, xbar) -> dict:
    """Total derivatives d C_k / d alpha of the delay-block Jacobians, one
    tuple of d x d matrices per parameter name.

    Differentiates along the equilibrium branch through xbar: the mixed
    derivative d2f/dv dalpha plus the chain term through the induced
    equilibrium drift d xbar / d alpha = -A^{-1} df/dalpha, with A the
    collapsed Jacobian. Raises numpy.linalg.LinAlgError when A is singular
    (a fold, where the branch has no smooth parametrization).
    """
    if not model.params:
        return {}
    xbar = np.asarray(xbar, dtype=float)
    d, n_lags = model.dim, len(model.delays)
    _, grad = model.derivs.first(xbar, model.params)
    f_alpha, hess, mixed = model.derivs.second(xbar, model.params)
    drift = -np.linalg.solve(grad.sum(axis=1), f_alpha)
    # the drift moves every lag of a component alike
    hess_collapsed = hess.reshape(d, -1, n_lags, d).sum(axis=2)
    total = (mixed + hess_collapsed @ drift).reshape(d, n_lags, d, -1)
    return {
        name: tuple(total[:, lag, :, j].copy() for lag in range(n_lags))
        for j, name in enumerate(model.derivs.names)
    }


def _history_base(model: DdeModel, xbar) -> dict:
    base = {}
    for tree in model.rhs:
        for key in state_symbols(tree):
            base[key] = complex(xbar[key[0]])
    return base


def bilinear_form(model: DdeModel, xbar, u, v) -> np.ndarray:
    """Componentwise second derivative D^2 f(xbar)(u, v) of the full rhs.

    u and v assign a complex value per (comp, lag); since the linear part is
    degree one, this equals the second derivative of the shifted nonlinearity.
    """
    base = _history_base(model, xbar)
    return np.array(
        [eval_jet3(tree, base, [u, v], model.params) for tree in model.rhs]
    )


def trilinear_form(model: DdeModel, xbar, u, v, w) -> np.ndarray:
    """Componentwise third derivative D^3 f(xbar)(u, v, w) of the full rhs."""
    base = _history_base(model, xbar)
    return np.array(
        [eval_jet3(tree, base, [u, v, w], model.params) for tree in model.rhs]
    )
