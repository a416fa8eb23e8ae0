"""Truncated third-order Taylor arithmetic over complex scalars.

A Jet3 tracks (f, f', f''/2, f'''/6) of a composition along one perturbation
direction. Domain violations raise bare ZeroDivisionError/ValueError here; the
expression evaluator wraps them with the offending subexpression.
"""

from __future__ import annotations

import cmath


class Jet3:
    __slots__ = ("c",)

    def __init__(self, c0, c1=0.0, c2=0.0, c3=0.0):
        self.c = (complex(c0), complex(c1), complex(c2), complex(c3))

    def __repr__(self):
        return f"Jet3{self.c!r}"

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _lift(other)
        a, b = self.c, o.c
        return Jet3(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        a, b = self.c, o.c
        return Jet3(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other):
        return _lift(other).__sub__(self)

    def __neg__(self):
        a = self.c
        return Jet3(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        o = _lift(other)
        a, b = self.c, o.c
        return Jet3(
            a[0] * b[0],
            a[0] * b[1] + a[1] * b[0],
            a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
            a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return _lift(other) * self._reciprocal()

    def _reciprocal(self) -> "Jet3":
        b0 = self.c[0]
        if b0 == 0:
            raise ZeroDivisionError("division by a jet with zero value")
        i0 = 1.0 / b0
        # 1/(b0+u) = i0 * (1 - v + v^2 - v^3) with v = u*i0 nilpotent
        v = Jet3(0.0, self.c[1] * i0, self.c[2] * i0, self.c[3] * i0)
        v2 = v * v
        v3 = v2 * v
        one = Jet3(1.0)
        return (one - v + v2 - v3) * i0

    def __pow__(self, exponent):
        if isinstance(exponent, Jet3):
            if exponent.c[1] == 0 and exponent.c[2] == 0 and exponent.c[3] == 0:
                return self.__pow__(exponent.c[0])
            return jet_exp(exponent * jet_log(self))
        e = complex(exponent)
        if e.imag == 0 and e.real == round(e.real) and abs(e.real) <= 128:
            return self._int_pow(int(e.real))
        return jet_exp(e * jet_log(self))

    def __rpow__(self, base):
        return _lift(base).__pow__(self)

    def _int_pow(self, m: int) -> "Jet3":
        if m < 0:
            return self._reciprocal()._int_pow(-m)
        out = Jet3(1.0)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    # ---- composition with smooth outer functions -------------------------

    def _compose(self, f0, f1, f2, f3) -> "Jet3":
        u = Jet3(0.0, self.c[1], self.c[2], self.c[3])
        u2 = u * u
        u3 = u2 * u
        a = Jet3(f0) + f1 * u + f2 * u2 + f3 * u3
        return a


def _lift(value) -> Jet3:
    if isinstance(value, Jet3):
        return value
    return Jet3(value)


def jet_exp(x) -> Jet3:
    x = _lift(x)
    f0 = cmath.exp(x.c[0])
    return x._compose(f0, f0, f0 / 2.0, f0 / 6.0)


def jet_log(x) -> Jet3:
    x = _lift(x)
    z = x.c[0]
    if z == 0 or (z.imag == 0 and z.real <= 0):
        raise ValueError("log of a nonpositive value")
    f1 = 1.0 / z
    return x._compose(cmath.log(z), f1, -f1 * f1 / 2.0, f1 * f1 * f1 / 3.0)


def jet_sin(x) -> Jet3:
    x = _lift(x)
    s, c = cmath.sin(x.c[0]), cmath.cos(x.c[0])
    return x._compose(s, c, -s / 2.0, -c / 6.0)


def jet_cos(x) -> Jet3:
    x = _lift(x)
    s, c = cmath.sin(x.c[0]), cmath.cos(x.c[0])
    return x._compose(c, -s, -c / 2.0, s / 6.0)
