"""Chebyshev collocation tools for delay differential equations.

The package turns a DDE into a polynomial-collocation ODE system on a
Chebyshev mesh of the delay interval and builds on that: spectra and
characteristic functions, Hopf point location with first Lyapunov
coefficient and genericity diagnostics, critical-curve continuation,
convergence studies, and time integration with period estimation.
"""

__version__ = "0.1.0"
