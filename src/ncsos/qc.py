"""Exact complex rationals and rational radical bounds.

``QC`` is a minimal Gaussian-rational scalar: a pair of ``fractions.Fraction``
values with field arithmetic, used wherever coefficients must stay exact
(group-algebra elements, Gram matrices, dual functionals).  Upper bounds on
square roots are produced by Newton iteration from above so that every
reported bound is certified (``bound**2 >= x`` holds exactly).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

# certified upper bounds are rounded up to the grid (1/BOUND_DENOMINATOR)Z
BOUND_DENOMINATOR = 10 ** 12
NEWTON_ROUNDS = 20
MAX_STR_DIGITS = 4300   # CPython's int <-> str limit, so json.loads's too
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def rational(x) -> Fraction:
    """``Fraction(x)``, refusing a string whose decimal exponent expands it
    past MAX_STR_DIGITS digits before the (slow) conversion.  The plain
    forms ``n`` and ``n/d`` in ASCII digits (n may start with '-'), which
    artifacts write, are read by ``int`` instead of Fraction's regular
    expression; any other string goes to Fraction."""
    if isinstance(x, str):
        n, slash, d = x.partition("/")
        unsigned = n[1:] if n[:1] == "-" else n
        if unsigned.isascii() and unsigned.isdigit() and \
                (not slash or d.isascii() and d.isdigit()):
            return Fraction(int(n), int(d)) if slash else Fraction(int(n))
        if m := _EXPONENT.search(x):
            digits = sum(ch.isdigit() for ch in x[:m.start()])
            if digits + abs(int(m.group(1))) > MAX_STR_DIGITS:
                raise ValueError(f"{x[:20]!r}... over {MAX_STR_DIGITS} digits")
    return Fraction(x)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rational(x)
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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def sqrt_upper(x: Fraction | int) -> Fraction:
    """A rational y with ``y >= sqrt(x)`` and ``y*y >= x`` exactly.

    Newton iteration for sqrt converges from above once started above the
    root; NEWTON_ROUNDS iterations from ``max(1, x)`` give far better than
    double precision for desk-scale inputs.  The result is then rounded UP
    to the grid (1/BOUND_DENOMINATOR)Z so the guarantee survives.
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
    for _ in range(NEWTON_ROUNDS):
        y = (y + x / y) / 2
        if y.denominator > 10 ** 40:
            y = _limit_up(y, 10 ** 20)
    y = _limit_up(y, BOUND_DENOMINATOR)
    # final certification (cannot fail, but cheap to check)
    if y * y < x:
        y += Fraction(1, BOUND_DENOMINATOR)
    if y * y < x:
        raise RuntimeError("sqrt_upper bound below the root")
    return y


def _limit_up(y: Fraction, max_denominator: int) -> Fraction:
    """Smallest multiple of 1/max_denominator at or above y."""
    if y.denominator <= max_denominator:
        return y
    num = -((-y.numerator * max_denominator) // y.denominator)  # ceil division
    return Fraction(num, max_denominator)


def abs_upper(z: QC) -> Fraction:
    """Certified rational upper bound on \\|z\\|.

    Exact whenever the modulus is rational (real, imaginary, or
    Pythagorean-style values); a Newton upper bound otherwise.
    """
    if z.im == 0:
        return abs(z.re)
    if z.re == 0:
        return abs(z.im)
    return sqrt_upper(z.modulus_sq())


def max_digits(values) -> int:
    """Decimal digits of the largest numerator or denominator among
    rationals and QC values, found without converting any to ``str``
    (which CPython refuses above 4300 digits)."""
    big = 0
    for v in values:
        for q in ((v.re, v.im) if isinstance(v, QC) else (_frac(v),)):
            big = max(big, abs(q.numerator), q.denominator)
    d = max(1, int(big.bit_length() * 0.30102999566398))  # within one
    while 10 ** d <= big:
        d += 1
    while d > 1 and 10 ** (d - 1) > big:
        d -= 1
    return d
