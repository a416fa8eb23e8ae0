"""Exact lag factors of the delay equation and the scalar-family Hopf chart.

The characteristic function Delta(lambda) = lambda I - sum_k C_k v_k(lambda)
is shared by the delay equation and its collocation ODE (see discretize);
the delay equation's lag factors v_k = e^{-lambda tau_k} live here, and the
transcendental Delta they give serves as the reference oracle. The rest of
the module charts the scalar delayed-feedback family
x' = b1 x(t) + b2 x(t-1) over an admissible omega grid: the Hopf boundary
(b1, b2), the (b1, b2) <-> (mu, beta) change of parameters for the
delayed-recruitment interpretation, and the first Lyapunov coefficient c,
each one array over the grid, so that a chart is a set of columns.

One formula gives (b1, b2, c) for both problems from the lag factor zeta at
i omega and 2 i omega and d zeta / d lambda at i omega. Two sources feed it:
zeta = e^{-lambda} for the delay equation, and at degree n the last entry
zeta_n of (D - lambda I)^{-1} D 1, which stands where the delay equation
has e^{-lambda}; the degree-n chart converges as zeta_n does.

The degree-n factors are wanted at many shifts lambda. D is factored once
per degree in real Schur form D = Z T Z^T, and up to 512 shifts at a time
are one vectorised back substitution against T. A chart row solves i omega,
with power 2 (d zeta_n / d lambda) from the same pass and -i omega as its
conjugate (T and Z are real), and 2 i omega. No eigendecomposition of
D is used: D is far from normal and its eigenvectors are ill-conditioned,
while Z is orthogonal. The curve's poles are the eigenvalues of one
(n-1) x (n-1) matrix per degree, built from D^2. scipy.linalg is imported on
first use, so commands without a degree-n chart never load it.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import Optional

import numpy as np

from .cheb_mesh import diff_matrix, make_mesh
from .errors import SingularityError

__all__ = [
    "delta0_lags",
    "boundary",
    "to_mu_beta",
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


_CHUNK = 512  # shifts per sweep at most: work arrays of n x 512 complex, 320 KiB at n = 40


@lru_cache(maxsize=64)
def _schur_factor(n: int):
    """Real Schur form D = Z T Z^T of the degree-n differentiation block.

    Returns T, its diagonal blocks as (start, stop) row ranges from the last
    one up (1 x 1 for a real eigenvalue, 2 x 2 for a complex pair), the
    column Z^T D 1 and the last row of Z.
    """
    from scipy.linalg import schur
    diff = diff_matrix(make_mesh(n))
    t, z = schur(diff.D, output="real")
    blocks, i = [], 0
    while i < n:
        size = 2 if i + 1 < n and t[i + 1, i] != 0.0 else 1
        blocks.append((i, i + size))
        i += size
    rhs = (z.T @ -diff.d0)[:, None]  # D 1 = -d0
    return t, tuple(reversed(blocks)), rhs, z[-1].copy()


@lru_cache(maxsize=64)
def _chart_poles(n: int) -> tuple:
    """The omegas > 0, sorted, where Im zeta_n(i omega) changes sign.

    Im zeta_n(i w) = w e_n^T (D^2 + w^2 I)^{-1} b with b = D 1 vanishes where
    mu = -w^2 is a zero of e_n^T (D^2 - mu I)^{-1} b. For b_n != 0 these are
    the eigenvalues of A' - b' a^T / b_n: A' and b' are D^2 and b without
    their last row (and column), a^T is D^2's last row without its last entry
    (Emami-Naeini & Van Dooren, Automatica 1982). A real eigenvalue comes
    with imaginary part exactly 0; a complex pair is off the axis, where the
    sign holds. scipy's eigvals shares schur's LAPACK; numpy's adds ~0.8 MB."""
    from scipy.linalg import eigvals
    diff = diff_matrix(make_mesh(n))
    sq, b = diff.D @ diff.D, -diff.d0
    if not abs(b[-1]) > 1e-12 * np.abs(b).max():
        raise SingularityError(f"degree-{n} pole formula needs (D 1)_n != 0, got {b[-1]}")
    mu = eigvals(sq[:-1, :-1] - np.outer(b[:-1], sq[-1, :-1]) / b[-1])
    return tuple(np.sort(np.sqrt(-mu[(mu.imag == 0.0) & (mu.real < 0.0)].real)).tolist())


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


def _lag_powers(n: int, lam, power: int) -> list:
    """lag_solve_last at powers 1..power, each one more back substitution.
    Sweeps take up to _CHUNK shifts, a multiple of 256, and the last
    size % 256 alone. A threaded BLAS splits a sweep between threads and the
    split can move a column's last bit; this cut gives the bits of 256-wide sweeps."""
    t, blocks, rhs, last = _schur_factor(n)
    lam = np.asarray(lam, dtype=complex)
    shifts = lam.ravel()
    out = np.empty((power, shifts.size), dtype=complex)
    tail = shifts.size - shifts.size % 256
    edges = sorted({*range(0, tail, _CHUNK), tail, shifts.size})
    for start, stop in zip(edges, edges[1:]):
        vec = rhs
        for p in range(power):
            vec = _back_substitute(t, blocks, shifts[start:stop], vec)
            out[p, start:stop] = last @ vec
    return [complex(row[0]) if lam.ndim == 0 else row.reshape(lam.shape) for row in out]


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
    return _lag_powers(n, lam, power)[-1]


def _raise_at(bad, omega, message: str, error=SingularityError) -> None:
    """Raise `error` naming the first omega where `bad` holds."""
    bad = np.ravel(bad)
    if bad.any():
        raise error(message.format(w=float(np.ravel(omega)[bad.argmax()])))


def _zeta(n: Optional[int], w, slope: bool = False):
    """Lag factor zeta at i w, with d zeta / d lambda there as a pair when
    slope is set: e^{-i w} and -e^{-i w} for the delay equation (n None),
    the last entry of (D - i w I)^{-p} D 1 at p = 1 and 2 at degree n."""
    if n is None:
        z = np.cos(w) - 1j * np.sin(w)
        return (z, -z) if slope else z
    return tuple(_lag_powers(n, 1j * w, 2)) if slope else lag_solve_last(n, 1j * w)


def _coeffs(w: np.ndarray, z, strict: bool = True) -> tuple:
    """(b1, b2) = (-w Re zeta / Im zeta, w / Im zeta) of the boundary at the
    frequencies w from zeta at i w, floats for one omega. Where Im zeta
    vanishes the boundary is singular: strict raises there, else those
    entries are NaN."""
    singular = np.abs(z.imag) < 1e-13 * np.maximum(1.0, np.abs(z))
    if strict:
        _raise_at(singular, w, "boundary is singular at omega={w} (Im zeta = 0)")
    im = np.where(singular, np.nan, z.imag)
    b1, b2 = -w * z.real / im, w / im
    return (float(b1), float(b2)) if w.ndim == 0 else (b1, b2)


def boundary(omega, n: Optional[int] = None) -> tuple:
    """Principal Hopf boundary of x' = b1 x + b2 x(t-1) at root i omega, of the
    delay equation (n None: b1 = omega cot omega, b2 = -omega / sin omega)
    or of its degree-n collocation ODE. One omega gives floats, an array
    gives arrays."""
    w = np.asarray(omega, dtype=float)
    return _coeffs(w, _zeta(n, w))


_NEEDS_MU = "b1={w} >= 0: interpretation as population parameters needs mu > 0"


def to_mu_beta(b1, b2) -> tuple:
    """Map linearization coefficients to delayed-recruitment parameters:
    mu = -b1, beta = -b1 e^{1 + b2/b1}. One pair gives floats, two arrays of
    one shape give arrays, and either error names the first pair that fails.
    Each exponential is math.exp's: np.exp can differ from it in the last bit."""
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    _raise_at(b1 >= 0.0, b1, _NEEDS_MU, ValueError)
    ratio = 1.0 + b2 / b1
    try:
        growth = np.reshape(list(map(math.exp, ratio.ravel().tolist())), ratio.shape)
    except OverflowError:
        k = np.argmax(ratio.ravel() > math.log(sys.float_info.max))
        raise SingularityError(
            f"beta overflows at (b1, b2)=({b1.flat[k]}, {b2.flat[k]}): boundary end point"
        ) from None
    mu, beta = -b1, -b1 * growth
    return (float(mu), float(beta)) if b1.ndim == 0 else (mu, beta)


def _chart(n: Optional[int], w: np.ndarray) -> tuple:
    """(b1, b2, c) on the boundary at the frequencies w from zeta and
    zeta' = d zeta / d lambda at i w and zeta at 2 i w. d2 and d3 are the
    recruitment term's second and third derivatives at the equilibrium with
    mu = -b1 and mu ln(beta/mu) = -(b1 + b2), finite where beta overflows.
    With |zeta| = 1, zeta^2 conj(zeta) / (1 - b2 zeta') is the delay
    equation's B10 = e^{-i w} / (1 + b2 e^{-i w})."""
    z, dz = _zeta(n, w, slope=True)
    b1, b2 = _coeffs(w, z)
    _raise_at(np.abs(b1 + b2) < 1e-12, w, "transcritical point at omega={w}: b1 + b2 = 0")
    _raise_at(b1 >= 0.0, b1, _NEEDS_MU, ValueError)
    d2, d3 = b1 - b2, -2.0 * b1 + b2
    den1 = 1.0 - b2 * dz
    _raise_at(np.abs(den1) < 1e-12, w, "B1n denominator vanishes at omega={w}")
    b1n = z * z * z.conjugate() / den1
    z2 = _zeta(n, 2.0 * w)
    den2 = 2j * w - b1 - b2 * z2
    _raise_at(np.abs(den2) < 1e-12, w, "B2n denominator vanishes at omega={w}")
    b2n = z2 / den2 * b1n
    return b1, b2, 0.5 * d3 * b1n - d2 * d2 / (b1 + b2) * b1n + 0.5 * d2 * d2 * b2n


def boundary_points(omegas, n: Optional[int] = None) -> tuple:
    """The chart at an array of omegas as columns (omega, b1, b2, mu, beta,
    Re c): the exact curve when n is None, else the degree-n one, whose
    columns come from three batched lag-solve passes over the omegas.

    Raises SingularityError near poles of the curve and where beta
    overflows at its end points, and ValueError where the (mu, beta)
    interpretation fails (b1 >= 0), each naming the first omega or
    (b1, b2) pair that fails.
    """
    w = np.asarray(omegas, dtype=float).ravel()
    b1, b2, c = _chart(n, w)
    return (w, b1, b2, *to_mu_beta(b1, b2), c.real)


def admissible_omegas(
    lo: float, hi: float, steps: int, n: Optional[int] = None, margin: float = 1e-3
) -> np.ndarray:
    """Uniform omega grid with exclusion zones around curve singularities.

    Singular abscissas are the multiples k pi, k >= 1, of [lo, hi] for the
    exact curve (each grid point is tested against the nearest one) and the
    omegas > 0 in [lo, hi] where Im zeta_n changes sign for the discretized
    one, the eigenvalues of one cached (n-1) x (n-1) matrix (_chart_poles);
    points within `margin` of one are dropped, as are points where the
    boundary is singular, where the (mu, beta) interpretation fails
    (b1 >= 0) and where beta = -b1 e^{1 + b2/b1} overflows (just above
    pi/2, where b1 -> 0-).
    """
    if not lo < hi:
        raise ValueError(f"omega window needs lo < hi, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, steps)
    near = np.zeros(grid.shape, dtype=bool)
    if n is None:
        first, last = max(1, int(lo / math.pi)), int(hi / math.pi)
        if first <= last:
            k = np.clip(np.round(grid / math.pi), float(first), float(last))
            near = np.abs(grid - k * math.pi) <= margin
    else:
        for pole in _chart_poles(n):
            if lo <= pole <= hi:
                near |= np.abs(grid - pole) <= margin
    b1, b2 = _coeffs(grid, _zeta(n, grid), strict=False)  # NaN where singular
    mu_side = b1 < 0.0
    ratio = 1.0 + b2 / np.where(mu_side, b1, -1.0)
    return grid[~near & mu_side & (ratio <= math.log(sys.float_info.max))]
