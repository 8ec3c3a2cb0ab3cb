"""Exact complex rationals and rational radical bounds.

``QC`` is a minimal Gaussian-rational scalar: a pair of ``fractions.Fraction``
values with field arithmetic, used wherever coefficients must stay exact
(group-algebra elements, Gram matrices, dual functionals).  Upper bounds on
square roots are produced by Newton iteration from above so that every
reported bound is certified (``bound**2 >= x`` holds exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class QC:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat | str = 0, im: Rat | str = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    # -- basic field ops -------------------------------------------------

    def _coerce(self, other) -> "QC | None":
        if isinstance(other, QC):
            return other
        if isinstance(other, (int, Fraction)):
            return QC(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- involution and size ----------------------------------------------

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def modulus_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def sqrt_upper(x: Fraction | int, rounds: int = 20,
               max_denominator: int = 10 ** 12) -> Fraction:
    """A rational y with ``y >= sqrt(x)`` and ``y*y >= x`` exactly.

    Newton iteration for sqrt converges from above once started above the
    root; ``rounds`` iterations from ``max(1, x)`` give far better than
    double precision for desk-scale inputs.  The result is then rounded UP
    so the guarantee survives denominator limiting.
    """
    x = _frac(x)
    if x < 0:
        raise ValueError("sqrt_upper of negative rational")
    if x == 0:
        return Fraction(0)
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    y = x if x >= 1 else Fraction(1)
    for _ in range(rounds):
        y = (y + x / y) / 2
        if y.denominator > 10 ** 40:
            y = _limit_up(y, 10 ** 20)
    y = _limit_up(y, max_denominator)
    # final certification (cannot fail, but cheap to assert)
    if y * y < x:
        y += Fraction(1, max_denominator)
    assert y * y >= x
    return y


def _limit_up(y: Fraction, max_denominator: int) -> Fraction:
    """Smallest multiple of 1/max_denominator at or above y."""
    if y.denominator <= max_denominator:
        return y
    num = -((-y.numerator * max_denominator) // y.denominator)  # ceil division
    return Fraction(num, max_denominator)


def abs_upper(z: QC, max_denominator: int = 10 ** 12) -> Fraction:
    """Certified rational upper bound on \\|z\\|.

    Exact whenever the modulus is rational (real, imaginary, or
    Pythagorean-style values); a Newton upper bound otherwise.
    """
    if z.im == 0:
        return abs(z.re)
    if z.re == 0:
        return abs(z.im)
    return sqrt_upper(z.modulus_sq(), max_denominator=max_denominator)

