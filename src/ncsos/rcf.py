"""Exact infinitesimal scalars and derivative functionals.

The scalar type models the real closed field R(eps) by its subring Q[eps]:
polynomials ``sum_e c_e * eps^e`` with rational ``c_e`` and exponents
``e >= 0``.  Every term is kept, so arithmetic is exact.  Order comparisons
are lexicographic in the exponent: the sign of a nonzero polynomial is the
sign of its lowest-order coefficient, which makes eps a positive element
smaller than every positive rational.  The units of Q[eps] are the nonzero
rationals, and they are the only divisors accepted.

Level schedule: ``level_infinitesimal(i) = eps**(2**i - 1)``.  These satisfy
``k * eps_i < eps_{i-1}`` for every integer k and ``r * eps_2 < eps_1**2``
for every rational r, which is exactly what the stacked derivative
functionals below need in order to stay positive while violating complete
positivity.

No square roots are ever taken: positive semidefiniteness of hermitian
matrices over these scalars is decided through characteristic-polynomial
coefficient signs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla
from .qc import QC, _frac


def default_order() -> int:
    """The truncation order of releases whose jets dropped terms above it."""
    return 63


class RcfScalar:
    """A polynomial ``sum c_e eps^e``, e >= 0, with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
                c = _frac(c)
                if c:
                    clean[e] = clean.get(e, Fraction(0)) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x) -> "RcfScalar":
        return RcfScalar({0: _frac(x)})

    @staticmethod
    def zero() -> "RcfScalar":
        return RcfScalar({})

    @staticmethod
    def one() -> "RcfScalar":
        return RcfScalar({0: Fraction(1)})

    @staticmethod
    def eps(exponent: int = 1) -> "RcfScalar":
        return RcfScalar({exponent: Fraction(1)})

    # -- plumbing ----------------------------------------------------------

    def _coerce(self, other) -> "RcfScalar | None":
        if isinstance(other, RcfScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RcfScalar({0: _frac(other)})
        return None

    def copy_with(self, terms):
        out = RcfScalar.__new__(RcfScalar)
        out.terms = terms
        return out

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self.copy_with(terms)

    __radd__ = __add__

    def __neg__(self):
        return self.copy_with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return self.copy_with(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "RcfScalar":
        """Inverse of a unit of Q[eps], that is of a nonzero rational."""
        if self.terms.keys() != {0}:
            raise ZeroDivisionError(
                f"{self.render()} is not a nonzero rational, so it has no "
                "inverse among polynomials in eps")
        return self.copy_with({0: 1 / self.terms[0]})

    # -- order structure -----------------------------------------------------

    def sign(self) -> int:
        if not self.terms:
            return 0
        c = self.terms[min(self.terms)]
        return 1 if c > 0 else -1

    def compare(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare RcfScalar with {type(other).__name__}")
        return (self - o).sign()

    def __eq__(self, other):
        try:
            return self.compare(other) == 0
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __bool__(self):
        return bool(self.terms)

    # -- text ------------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            body = str(mag) if e == 0 else (f"{mag}*e^{e}" if mag != 1 else f"e^{e}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"RcfScalar({self.render()!r})"

    @staticmethod
    def parse(text: str) -> "RcfScalar":
        """Inverse of :meth:`render`; accepts e.g. ``"1 + 4*e^1 - 4*e^2"``."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar text")
        if s == "0":
            return RcfScalar.zero()
        # split into signed chunks
        chunks = []
        cur = ""
        for ch in s:
            if ch in "+-" and cur and cur[-1] not in "+-/*^":
                chunks.append(cur)
                cur = ch
            else:
                cur += ch
        chunks.append(cur)
        terms: dict[int, Fraction] = {}
        for chunk in chunks:
            sign = 1
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:]
            if not chunk:
                raise ValueError(f"dangling sign in {text!r}")
            if "e" in chunk:
                coeff_part, _, exp_part = chunk.partition("e")
                coeff_part = coeff_part.rstrip("*")
                coeff = Fraction(coeff_part) if coeff_part else Fraction(1)
                exp = int(exp_part.lstrip("^")) if exp_part else 1
            else:
                coeff = Fraction(chunk)
                exp = 0
            terms[exp] = terms.get(exp, Fraction(0)) + sign * coeff
        return RcfScalar(terms)


def level_infinitesimal(i: int) -> RcfScalar:
    """The i-th level ``eps**(2**i - 1)``; level 0 is the unit 1.

    Each level is infinitesimal relative to every rational multiple of the
    previous one, and level 2 sits below the square of level 1.
    """
    if i < 0:
        raise ValueError("level index must be nonnegative")
    return RcfScalar.eps(2 ** i - 1)


class RcfComplex:
    """A complex jet: a pair of :class:`RcfScalar`."""

    __slots__ = ("re", "im")

    def __init__(self, re: RcfScalar, im: RcfScalar | None = None):
        self.re = re
        self.im = RcfScalar.zero() if im is None else im

    @staticmethod
    def from_qc(z: QC) -> "RcfComplex":
        return RcfComplex(RcfScalar.from_rational(z.re),
                          RcfScalar.from_rational(z.im))

    @staticmethod
    def zero() -> "RcfComplex":
        return RcfComplex(RcfScalar.zero())

    @staticmethod
    def one() -> "RcfComplex":
        return RcfComplex(RcfScalar.one())

    def _coerce(self, other) -> "RcfComplex | None":
        if isinstance(other, RcfComplex):
            return other
        if isinstance(other, RcfScalar):
            return RcfComplex(other)
        if isinstance(other, (int, Fraction)):
            return RcfComplex(RcfScalar.from_rational(other))
        if isinstance(other, QC):
            return RcfComplex.from_qc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RcfComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RcfComplex(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RcfComplex(self.re * o.re - self.im * o.im,
                          self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            inv = Fraction(1, other)
            return RcfComplex(self.re * inv, self.im * inv)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = (o.re * o.re + o.im * o.im).inverse()
        num = self * o.conjugate()
        return RcfComplex(num.re * den, num.im * den)

    def conjugate(self) -> "RcfComplex":
        return RcfComplex(self.re, -self.im)

    def modulus_sq(self) -> RcfScalar:
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"RcfComplex({self.re.render()!r}, {self.im.render()!r})"


class UniPoly:
    """Univariate *-polynomial in one hermitian variable t with QC coefficients.

    The involution fixes t and conjugates coefficients, so ``p.star() * p``
    is a hermitian square for every p.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, QC) else QC(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        get = lambda cs, i: cs[i] if i < len(cs) else QC(0)
        return UniPoly([get(self.coeffs, i) + get(other.coeffs, i) for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + UniPoly([-c for c in other.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            z = other if isinstance(other, QC) else QC(other)
            return UniPoly([c * z for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [QC(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def star(self) -> "UniPoly":
        return UniPoly([c.conjugate() for c in self.coeffs])

    def derivative_at_zero(self, k: int) -> QC:
        """p^{(k)}(0) = k! * coeff_k, exactly."""
        if k >= len(self.coeffs):
            return QC(0)
        f = 1
        for j in range(2, k + 1):
            f *= j
        return self.coeffs[k] * f

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        body = " + ".join(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)*t^{k}"
                          for k, c in enumerate(self.coeffs))
        return f"UniPoly({body})"


MODES = ("single_level", "full_series")


def eval_derivative_functional(p: UniPoly, mode: str) -> RcfComplex:
    """Apply the chosen derivative-at-zero functional to p.

    ``single_level``: p(0) + eps * p''(0).
    ``full_series``:  sum_i level_i * p^{(2i)}(0)  (level 0 weight is 1).

    Both send hermitian squares to nonnegative jets; only the full series
    keeps *every* nonzero square strictly positive.
    """
    if mode not in MODES:
        raise ValueError(f"unknown functional mode {mode!r}")
    re_terms: dict[int, Fraction] = {}
    im_terms: dict[int, Fraction] = {}

    def put(exponent: int, z: QC):
        if z.re:
            re_terms[exponent] = re_terms.get(exponent, Fraction(0)) + z.re
        if z.im:
            im_terms[exponent] = im_terms.get(exponent, Fraction(0)) + z.im

    if mode == "single_level":
        put(0, p.derivative_at_zero(0))
        put(1, p.derivative_at_zero(2))
    else:
        i = 0
        while 2 * i <= max(p.degree(), 0):
            z = p.derivative_at_zero(2 * i)
            if z:
                put(2 ** i - 1, z)
            i += 1
    return RcfComplex(RcfScalar(re_terms), RcfScalar(im_terms))


class CauchySchwarzResult:
    __slots__ = ("holds", "lhs", "rhs", "excess")

    def __init__(self, holds, lhs, rhs, excess):
        self.holds = holds
        self.lhs = lhs
        self.rhs = rhs
        self.excess = excess

    def __repr__(self):
        tag = "holds" if self.holds else f"violated by {self.excess.render()}"
        return f"CauchySchwarzResult({tag})"


def cauchy_schwarz_check(mode: str, a: UniPoly, b: UniPoly) -> CauchySchwarzResult:
    """Test |phi(a* b)|^2 <= phi(a* a) phi(b* b) for the chosen functional.

    Returns the exact excess jet when the inequality fails; a failure is a
    certificate that the functional, while positive, is not a state coming
    from any inner-product representation.
    """
    phi_ab = eval_derivative_functional(a.star() * b, mode)
    lhs = phi_ab.modulus_sq()
    qa = eval_derivative_functional(a.star() * a, mode)
    qb = eval_derivative_functional(b.star() * b, mode)
    if qa.im or qb.im:
        raise AssertionError("hermitian squares must have real functional values")
    rhs = qa.re * qb.re
    if lhs <= rhs:
        return CauchySchwarzResult(True, lhs, rhs, None)
    return CauchySchwarzResult(False, lhs, rhs, lhs - rhs)


def hermitian_psd_check(M: Sequence[Sequence[RcfComplex]]) -> bool:
    """Exact PSD test over the ordered field, no square roots.

    Uses characteristic-polynomial coefficient signs: with ``det(xI - M) =
    x^n + c_{n-1} x^{n-1} + ... + c_0``, the matrix is PSD iff
    ``(-1)^k c_{n-k} >= 0`` for all k (elementary symmetric functions of the
    eigenvalues are nonnegative).
    """
    n = len(M)
    if n == 0:
        return True
    for i in range(n):
        if len(M[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(n):
            if M[i][j] != M[j][i].conjugate():
                raise ValueError(f"matrix is not hermitian at ({i},{j})")
    coeffs = exactla.char_poly([list(row) for row in M], RcfComplex.one())
    for k in range(1, n + 1):
        c = coeffs[n - k]
        if c.im:
            raise AssertionError("hermitian charpoly coefficients must be real")
        if ((-1) ** k * c.re).sign() < 0:
            return False
    return True


def cp_level_check(mode: str, rows: Sequence[UniPoly]) -> bool:
    """PSD test of the moment matrix (phi(a_i* a_j))_ij for given rows.

    A functional extending to a completely positive map must pass this for
    every finite choice of rows; a failed check at some level refutes
    complete positivity of the functional.
    """
    n = len(rows)
    M = [[eval_derivative_functional(rows[i].star() * rows[j], mode)
          for j in range(n)] for i in range(n)]
    return hermitian_psd_check(M)
