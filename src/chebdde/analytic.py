"""Exact lag factors of the delay equation and scalar-family closed forms.

The characteristic function Delta(lambda) = lambda I - sum_k C_k v_k(lambda)
is shared by the delay equation and its collocation ODE (see discretize);
the delay equation's lag factors v_k = e^{-lambda tau_k} live here, and the
transcendental Delta they give serves as the reference oracle. The rest of
the module charts the scalar delayed-feedback family
x' = b1 x(t) + b2 x(t-1): Hopf boundary curves (exact and discretized), the
(b1, b2) <-> (mu, beta) change of parameters for the delayed-recruitment
interpretation, crossing speeds, and first Lyapunov coefficients along the
boundary in closed form.

The discretized curves need the last entry of (D - lambda I)^{-p} D 1 at many
shifts lambda. The differentiation block D is factored once per degree in
real Schur form D = Z T Z^T, and each batch of shifts is one vectorised back
substitution against T, so a whole chart costs a handful of batched solves.
No eigendecomposition of D is used: D is far from normal and its
eigenvectors are ill-conditioned, while Z is orthogonal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import schur

from .cheb_mesh import diff_matrix, make_mesh
from .errors import SingularityError

__all__ = [
    "BoundaryPoint",
    "delta0_lags",
    "dde_boundary",
    "ps_boundary",
    "to_mu_beta",
    "c0_blowfly",
    "cn_blowfly",
    "lambda_prime_n2",
    "lambda_prime_n2_re",
    "boundary_point",
    "boundary_points",
    "admissible_omegas",
]


def delta0_lags(delays, lam: complex, order: int = 0) -> list:
    """Lag factors of the delay equation's characteristic function,
    e^{-lambda tau_k} (order 0) or their lambda-derivatives
    -tau_k e^{-lambda tau_k} (order 1), one per delay."""
    lam = complex(lam)
    if order == 0:
        return [cmath.exp(-lam * tau) for tau in delays]
    return [-tau * cmath.exp(-lam * tau) for tau in delays]


def dde_boundary(omega: float) -> tuple:
    """Principal Hopf boundary of x' = b1 x + b2 x(t-1) at root i*omega:
    b1 = omega cos(omega)/sin(omega), b2 = -omega/sin(omega). A series
    fallback covers |omega| < 1e-4 where the quotient degenerates to 0/0."""
    w = float(omega)
    if abs(w) < 1e-4:
        w2 = w * w
        return (1.0 - w2 / 3.0 - w2 * w2 / 45.0, -(1.0 + w2 / 6.0 + 7.0 * w2 * w2 / 360.0))
    s = math.sin(w)
    if abs(s) < 1e-9:
        raise SingularityError(
            f"boundary is singular at omega={w} (multiple of pi)"
        )
    return (w * math.cos(w) / s, -w / s)


_CHUNK = 256  # shifts per back-substitution sweep; bounds the work array at n x 256


@lru_cache(maxsize=64)
def _schur_factor(n: int):
    """Real Schur form D = Z T Z^T of the degree-n differentiation block.

    Returns T, its diagonal blocks as (start, stop) row ranges from the last
    one up (1 x 1 for a real eigenvalue, 2 x 2 for a complex pair), the
    column Z^T D 1 and the last row of Z.
    """
    diff = diff_matrix(make_mesh(n))
    t, z = schur(diff.D, output="real")
    blocks, i = [], 0
    while i < n:
        size = 2 if i + 1 < n and t[i + 1, i] != 0.0 else 1
        blocks.append((i, i + size))
        i += size
    rhs = (z.T @ -diff.d0)[:, None]  # D 1 = -d0
    return t, tuple(reversed(blocks)), rhs, z[-1].copy()


def _back_substitute(t, blocks, shifts: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Columns x_j of (T - s_j I) x_j = rhs_j for quasi-triangular T, every
    shift in one sweep over the diagonal blocks; a 2 x 2 block is solved by
    Cramer's rule. rhs is one column, shape (n, 1), or one per shift."""
    out = np.empty((t.shape[0], shifts.size), dtype=complex)
    for lo, hi in blocks:
        r = rhs[lo:hi] - t[lo:hi, hi:] @ out[hi:]
        a = t[lo, lo] - shifts
        if hi - lo == 1:
            out[lo] = r[0] / a
        else:
            b, c = t[lo, lo + 1], t[lo + 1, lo]
            d = t[lo + 1, lo + 1] - shifts
            det = a * d - b * c
            out[lo] = (d * r[0] - b * r[1]) / det
            out[lo + 1] = (a * r[1] - c * r[0]) / det
    return out


def lag_solve_last(n: int, lam, power: int = 1):
    """Last entry of (D - lambda I)^{-power} D 1 on the degree-n mesh, for one
    shift (returns a complex) or an array of shifts (returns an array).

    D = Z T Z^T is factored once per degree in real Schur form (cached), so
    the entry is Z[-1, :] (T - lambda I)^{-power} Z^T D 1: quasi-triangular
    back substitutions vectorised over chunks of shifts, O(n^2) per shift
    and backward stable because Z is orthogonal. Keeping the factor real
    keeps Im zeta relatively accurate where it is small (lambda near 0) and
    the values at conjugate shifts exact conjugates, as a dense solve does.
    """
    t, blocks, rhs, last = _schur_factor(n)
    lam = np.asarray(lam, dtype=complex)
    shifts = lam.ravel()
    out = np.empty(shifts.size, dtype=complex)
    for start in range(0, shifts.size, _CHUNK):
        chunk = shifts[start : start + _CHUNK]
        vec = rhs
        for _ in range(power):
            vec = _back_substitute(t, blocks, chunk, vec)
        out[start : start + _CHUNK] = last @ vec
    return complex(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)


def _raise_at(bad, omega, message: str) -> None:
    """Raise SingularityError naming the first omega where `bad` holds."""
    bad = np.ravel(bad)
    if bad.any():
        raise SingularityError(message.format(w=float(np.ravel(omega)[bad.argmax()])))


def _ps_coeffs(n: int, w: np.ndarray) -> tuple:
    """(b1, b2) of the degree-n boundary at the frequencies w, NaN where
    Im zeta_n vanishes, and the mask of those frequencies."""
    zn = lag_solve_last(n, 1j * w)
    singular = np.abs(zn.imag) < 1e-13 * np.maximum(1.0, np.abs(zn))
    im = np.where(singular, np.nan, zn.imag)
    return -w * zn.real / im, w / im, singular


def ps_boundary(n: int, omega) -> tuple:
    """Hopf boundary of the degree-n collocation ODE, from the last entry of
    zeta = (D - i omega I)^{-1} D 1: b1 = -omega Re zeta_n / Im zeta_n,
    b2 = omega / Im zeta_n. One omega gives floats, an array gives arrays."""
    w = np.asarray(omega, dtype=float)
    b1, b2, singular = _ps_coeffs(n, w)
    _raise_at(singular, w, "discrete boundary is singular at omega={w} (Im zeta_n = 0)")
    return (float(b1), float(b2)) if w.ndim == 0 else (b1, b2)


def to_mu_beta(b1: float, b2: float) -> tuple:
    """Map linearization coefficients to delayed-recruitment parameters:
    mu = -b1, beta = -b1 e^{1 + b2/b1}."""
    if b1 >= 0.0:
        raise ValueError(
            f"b1={b1} >= 0: interpretation as population parameters needs mu > 0"
        )
    try:
        beta = -b1 * math.exp(1.0 + b2 / b1)
    except OverflowError:
        raise SingularityError(
            f"beta overflows at (b1, b2)=({b1}, {b2}): boundary end point"
        ) from None
    return (-b1, beta)


def _g_derivatives(b1, b2) -> tuple:
    """Second and third derivative of the recruitment nonlinearity at the
    positive equilibrium, mu ln(beta/mu) - 2 mu and -mu ln(beta/mu) + 3 mu,
    rewritten via mu = -b1 and mu ln(beta/mu) = -(b1 + b2) so they stay
    finite at the boundary ends where beta itself overflows. Elementwise on
    arrays; the error names the first b1 >= 0."""
    bad = np.ravel(np.asarray(b1) >= 0.0)
    if bad.any():
        raise ValueError(
            f"b1={float(np.ravel(b1)[bad.argmax()])} >= 0: "
            "interpretation as population parameters needs mu > 0"
        )
    return (b1 - b2, -2.0 * b1 + b2)


def c0_blowfly(omega: float) -> complex:
    """First Lyapunov coefficient along the exact boundary, pi/2 < omega < pi."""
    w = float(omega)
    b1, b2 = dde_boundary(w)
    if abs(b1 + b2) < 1e-12:
        raise SingularityError(
            f"transcritical point at omega={w}: b1 + b2 = 0"
        )
    d2, d3 = _g_derivatives(b1, b2)
    e1 = cmath.exp(-1j * w)
    den1 = 1.0 + b2 * e1
    if abs(den1) < 1e-12:
        raise SingularityError(f"B10 denominator vanishes at omega={w}")
    b10 = e1 / den1
    e2 = cmath.exp(-2j * w)
    den2 = 2j * w - b1 - b2 * e2
    if abs(den2) < 1e-12:
        raise SingularityError(f"B20 denominator vanishes at omega={w}")
    b20 = e2 / den2 * b10
    return 0.5 * d3 * b10 - d2 * d2 / (b1 + b2) * b10 + 0.5 * d2 * d2 * b20


def cn_blowfly(n: int, omega):
    """First Lyapunov coefficient along the degree-n discretized boundary; one
    omega gives a complex, an array gives an array.

    The second amplitude denominator uses the resonant lag solve at 2 i omega,
    mirroring the exact B20; with the solve at i omega the coefficient would
    not converge to the exact one.
    """
    w = np.asarray(omega, dtype=float)
    b1, b2 = ps_boundary(n, w)
    _raise_at(np.abs(b1 + b2) < 1e-12, w, "transcritical point at omega={w}: b1 + b2 = 0")
    d2, d3 = _g_derivatives(b1, b2)
    z_plus = lag_solve_last(n, 1j * w)
    z_minus = lag_solve_last(n, -1j * w)
    z_sq = lag_solve_last(n, 1j * w, power=2)
    den1 = 1.0 - b2 * z_sq
    _raise_at(np.abs(den1) < 1e-12, w, "B1n denominator vanishes at omega={w}")
    b1n = z_plus * z_plus * z_minus / den1
    z2 = lag_solve_last(n, 2j * w)
    den2 = 2j * w - b1 - b2 * z2
    _raise_at(np.abs(den2) < 1e-12, w, "B2n denominator vanishes at omega={w}")
    b2n = z2 / den2 * b1n
    c = 0.5 * d3 * b1n - d2 * d2 / (b1 + b2) * b1n + 0.5 * d2 * d2 * b2n
    return complex(c) if w.ndim == 0 else c


def _b1_n2(omega: float) -> float:
    w2 = omega * omega
    if abs(w2 - 16.0) < 1e-12:
        raise SingularityError(f"n=2 boundary singular at omega={omega}")
    return (7.0 * w2 - 16.0) / (w2 - 16.0)


def lambda_prime_n2(omega: float) -> complex:
    """Eigenvalue crossing speed d lambda / d b2 along the n=2 boundary."""
    w = float(omega)
    if w == 0.0:
        raise ValueError("crossing speed is undefined at omega = 0")
    if not -4.0 < w < 4.0:
        raise ValueError(f"omega={w} outside the principal n=2 branch (-4, 4)")
    b1 = _b1_n2(w)
    return (1j * w - 4.0) / (w * (-2.0 * w + 6j - 2j * b1))


def lambda_prime_n2_re(omega: float) -> float:
    """Closed-form real part of the crossing speed: (14-2 b1)/(4 w^2+(6-2 b1)^2)."""
    w = float(omega)
    if w == 0.0:
        raise ValueError("crossing speed is undefined at omega = 0")
    if not -4.0 < w < 4.0:
        raise ValueError(f"omega={w} outside the principal n=2 branch (-4, 4)")
    b1 = _b1_n2(w)
    return (14.0 - 2.0 * b1) / (4.0 * w * w + (6.0 - 2.0 * b1) ** 2)


@dataclass(frozen=True)
class BoundaryPoint:
    """One admissible point on a Hopf boundary chart."""

    omega: float
    b1: float
    b2: float
    mu: float
    beta: float
    re_c: float


def boundary_points(omegas, n: Optional[int] = None) -> list:
    """Chart rows at an array of omegas: the exact curve when n is None, else
    the degree-n one, whose rows come from a handful of batched lag solves.

    Raises SingularityError near poles of the curve and where beta
    overflows at its end points, and ValueError where the (mu, beta)
    interpretation fails (b1 >= 0).
    """
    w = np.asarray(omegas, dtype=float).ravel()
    if n is None:
        curve = [(*dde_boundary(x), c0_blowfly(x).real) for x in w]
    else:
        curve = zip(*ps_boundary(n, w), cn_blowfly(n, w).real)
    points = []
    for x, (b1, b2, re_c) in zip(w, curve):
        b1, b2 = float(b1), float(b2)
        mu, beta = to_mu_beta(b1, b2)
        points.append(BoundaryPoint(float(x), b1, b2, mu, beta, float(re_c)))
    return points


def boundary_point(omega: float, n: Optional[int] = None) -> BoundaryPoint:
    """Chart row at one omega; see boundary_points."""
    return boundary_points([omega], n)[0]


def _discrete_poles(n: int, lo: float, hi: float, steps: int) -> np.ndarray:
    """Sign changes of Im zeta_n on a fine scan of [lo, hi], each bisected 60
    times; all brackets halve together, one batched lag solve per halving."""
    scan = np.linspace(lo, hi, max(steps * 8, 800))
    vals = lag_solve_last(n, 1j * scan).imag
    fa, fb = vals[:-1], vals[1:]
    at = np.flatnonzero((fa == 0.0) | ((fa < 0) != (fb < 0)))
    if at.size == 0:
        return np.empty(0)
    x, y, neg = scan[at], scan[at + 1], fa[at] < 0
    for _ in range(60):
        m = 0.5 * (x + y)
        same = (lag_solve_last(n, 1j * m).imag < 0) == neg
        x = np.where(same, m, x)
        y = np.where(same, y, m)
    return 0.5 * (x + y)


def admissible_omegas(
    lo: float, hi: float, steps: int, n: Optional[int] = None, margin: float = 1e-3
) -> np.ndarray:
    """Uniform omega grid with exclusion zones around curve singularities.

    Singular abscissas are the multiples k pi, k >= 1, of [lo, hi] for the
    exact curve (each grid point is tested against the nearest one) and sign
    changes of Im zeta_n for the discretized one, located by bisection on a
    fine scan; points within `margin` of one are dropped, as are points where
    the boundary is singular or the (mu, beta) interpretation fails (b1 >= 0).
    """
    grid = np.linspace(lo, hi, steps)
    near = np.zeros(grid.shape, dtype=bool)
    if n is None:
        first, last = max(1, int(lo / math.pi)), int(hi / math.pi)
        if first <= last:
            k = np.clip(np.round(grid / math.pi), float(first), float(last))
            near = np.abs(grid - k * math.pi) <= margin
        b1 = np.full(grid.shape, np.nan)
        for i, w in enumerate(grid):
            try:
                b1[i] = dde_boundary(w)[0]
            except SingularityError:
                pass
    else:
        for pole in _discrete_poles(n, lo, hi, steps):
            near |= np.abs(grid - pole) <= margin
        b1, _, _ = _ps_coeffs(n, grid)  # NaN where the boundary is singular
    return grid[~near & (b1 < 0.0)]
