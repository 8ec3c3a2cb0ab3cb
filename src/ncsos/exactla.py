"""Exact linear algebra over duck-typed fields.

Every routine works on lists of lists of scalars supporting ``+ - * /``,
unary ``-`` and truthiness (``bool(x)`` false exactly when ``x == 0``).
``fractions.Fraction`` and :class:`ncsos.qc.QC` both qualify; ``int``
entries are divided as Fractions.  Nothing here ever touches floating
point.

The LDL* that decides positive semidefiniteness, the package's only PSD
test, runs on an integral domain instead: it takes a hermitian matrix as
real and imaginary parts over one common denominator, integers for a
rational matrix and jets of :mod:`ncsos.rcf` for a jet matrix,
eliminates fraction-free with Bareiss's exact division (``//``) by the
previous pivot and returns that factor (:class:`IntegerLDL`).
:func:`char_poly` and its ``_dot`` have no caller in the package; they
are kept only because ``bench/spans.py`` still wraps ``char_poly``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .qc import QC


def mat_copy(A):
    return [list(row) for row in A]


def rref(A, augment=None):
    """Row-reduce ``A`` (optionally with an augmented column block) in place.

    Returns ``(rows, pivots)`` where ``pivots`` lists the pivot column of
    each nonzero row.  Gauss-Jordan with leftmost-pivot selection, which is
    deterministic and exact over a field.  Only the nonzero entries of the
    pivot row are divided and eliminated, in place on the copied rows.
    """
    rows = mat_copy(A)
    if augment is not None:
        for r, extra in zip(rows, augment):
            r.extend(extra)
    if not rows:
        return rows, []
    m, n = len(rows), len(rows[0])
    limit = n if augment is None else len(A[0])
    pivots = []
    r = 0
    for c in range(limit):
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pr = rows[r]
        pv = pr[c]
        if isinstance(pv, int):     # so that / divides exactly
            pv = Fraction(pv)
        support = [j for j, x in enumerate(pr) if x]
        for j in support:
            pr[j] = pr[j] / pv
        for row in rows:
            f = row[c]
            if f and row is not pr:
                for j in support:
                    row[j] = row[j] - f * pr[j]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _field_zero(x):
    """The zero of the field of ``x``: a Fraction for an int."""
    return Fraction(0) if isinstance(x, int) else x - x


def solve_linear(A, b):
    """A particular solution x of ``A x = b`` or ``None`` if inconsistent.

    Free variables are fixed to zero, so the answer is deterministic in the
    column order.
    """
    if not A:
        return [] if not any(bool(x) for x in b) else None
    n = len(A[0])
    rows, pivots = rref(A, augment=[[x] for x in b])
    zero = _field_zero(A[0][0])
    x = [zero] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n] + zero
    # consistency: rows past the pivots must have zero rhs
    for i in range(len(pivots), len(rows)):
        if rows[i][n]:
            return None
    # rows with pivots already satisfied by construction; verify lazily is
    # left to callers' own invariants.
    return x


def char_poly(M, one):
    """Coefficients of ``det(lambda*I - M)`` by Faddeev-LeVerrier.

    Returns ``[c_0, c_1, ..., c_{n-1}, c_n]`` with ``c_n == 1`` (as the
    supplied ``one``); only exact divisions by integers occur, so any
    commutative ring containing the rationals works.
    """
    n = len(M)
    zero = one - one
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    Mk = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # N = M @ Mk
        N = [[_dot(M[i], [Mk[t][j] for t in range(n)]) for j in range(n)]
             for i in range(n)]
        tr = zero
        for i in range(n):
            tr = tr + N[i][i]
        ck = -(tr / k)
        coeffs[n - k] = ck
        Mk = [[N[i][j] + (ck if i == j else zero) for j in range(n)]
              for i in range(n)]
    return coeffs


def _dot(row, col):
    acc = None
    for a, b in zip(row, col):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


# ---------------------------------------------------------------------------
# hermitian-specific routines over QC
# ---------------------------------------------------------------------------

def _bareiss_ldlt(R, I):
    """Fraction-free LDL* of a hermitian matrix over an integral domain
    (integers, or jets), in place.

    ``R`` and ``I`` hold the real and imaginary parts of the lower
    triangle (row i has entries 0..i); ``I`` is None for a real matrix.
    Bareiss's rule (Math. Comp. 1968) keeps every entry integral: step
    k maps x_ij to (p_k x_ij - a_ik conj(a_jk)) / p_prev, an exact division
    by the previous nonzero pivot, so every live entry is a minor of the
    input (Sylvester's identity) and no gcd is ever taken.  A row whose
    column-k entry is zero is not touched at step k; it remembers the
    pivot its live entries are scaled by and catches up, again by an
    exact division, the next time it is touched, so sparse matrices
    cost what their fill costs.  A zero pivot whose column below is zero
    is skipped (the classical zero-pivot rule of a semidefinite matrix).

    Returns ``(pivots, fail)``: ``pivots[k]`` is p_k, or 0 for a skipped
    column, and column k of R (and I) below the diagonal holds the
    integer column a_ik with L[i][k] = a_ik / p_k; ``fail`` is
    ``(row, col_or_None)`` of the first violation, the columns before it
    in place (:func:`negative_vector` reads them).
    """
    n = len(R)
    level = [1] * n            # pivot that row i's live entries carry
    pivots = [0] * n
    prev = 1
    for k in range(n):
        p = R[k][k] * prev // level[k]
        if p < 0:
            return pivots, (k, None)
        if p == 0:
            for j in range(k + 1, n):
                if R[j][k] or (I is not None and I[j][k]):
                    return pivots, (j, k)
            continue
        R[k][k] = p
        pivots[k] = p
        cr = [0] * n               # column k at the current level
        ci = [0] * n
        for i in range(k + 1, n):
            Ri = R[i]
            Ii = I[i] if I is not None else None
            if not (Ri[k] or (Ii is not None and Ii[k])):
                continue
            lv = level[i]
            if lv != prev:         # catch up on the steps that skipped it
                Ri[k:] = [x * prev // lv for x in Ri[k:]]
                if Ii is not None:
                    Ii[k:] = [x * prev // lv for x in Ii[k:]]
            ar = cr[i] = Ri[k]
            if Ii is None:
                Ri[k + 1:] = [(p * x - ar * c) // prev
                              for x, c in zip(Ri[k + 1:], cr[k + 1:i + 1])]
            else:
                ai = ci[i] = Ii[k]
                # a_ik conj(a_jk), with a_jk = c + i d, is
                # (ar c + ai d) + i (ai c - ar d)
                Ri[k + 1:] = [(p * x - ar * c - ai * d) // prev for x, c, d
                              in zip(Ri[k + 1:], cr[k + 1:i + 1],
                                     ci[k + 1:i + 1])]
                Ii[k + 1:] = [(p * x - ai * c + ar * d) // prev for x, c, d
                              in zip(Ii[k + 1:], cr[k + 1:i + 1],
                                     ci[k + 1:i + 1])]
            level[i] = p
        prev = p
    return pivots, None


def _integer_lower(M):
    """The lower triangle of a hermitian QC matrix over the lcm of its
    denominators: integer real and imaginary parts (None when all zero),
    and that lcm."""
    re_rows = [[z.re for z in row[:i + 1]] for i, row in enumerate(M)]
    im_rows = [[z.im for z in row[:i + 1]] for i, row in enumerate(M)]
    im_rows = im_rows if any(map(any, im_rows)) else None
    scale = math.lcm(*(x.denominator for rows in (re_rows, im_rows or ())
                       for row in rows for x in row if x))

    def integers(rows):
        return [[x.numerator * (scale // x.denominator) if x else 0
                 for x in row] for row in rows]

    return integers(re_rows), im_rows and integers(im_rows), scale


class IntegerLDL(NamedTuple):
    """The fraction-free LDL* of a hermitian M that :func:`_bareiss_ldlt`
    leaves: pivots p_k (0 at a skipped column) and, below each, the
    integral (integer, or jet) column a_ik in the lower triangles R and I
    (None for a real M) of scale * M.  d_k = p_k / (p_prev scale) and
    L[i][k] = a_ik / p_k, with p_prev the previous nonzero pivot; the
    methods below read integer factors."""

    pivots: list
    R: list
    I: Optional[list]
    scale: int

    def ldl(self, unit):
        """``(d, L)`` with M = L diag(d) L*: Fractions d_k >= 0 and a unit
        lower-triangular L whose entries ``unit(re, im)`` builds."""
        R, I, n = self.R, self.I, len(self.R)
        one, zero = unit(1, 0), unit(0, 0)
        L = [[one if i == j else zero for j in range(n)] for i in range(n)]
        d, prev = [Fraction(0)] * n, 1
        for k, p in enumerate(self.pivots):
            if p:
                d[k] = Fraction(p, prev * self.scale)
                for i in range(k + 1, n):
                    if R[i][k] or (I and I[i][k]):
                        L[i][k] = unit(Fraction(R[i][k], p),
                                       Fraction(I[i][k] if I else 0, p))
                prev = p
        return d, L

    def squares(self):
        """M as rank-one terms with coprime integer roots: one ``(k, weight,
        root)`` per positive pivot, ``root`` the (re, im) pairs r_k ..
        r_{n-1} of (p_k, conj a_ik) over their content g, and weight =
        g^2 / (p_k p_prev scale), so that M_ij = sum weight conj(r_i) r_j."""
        R, I, out, prev = self.R, self.I, [], 1
        for k, p in enumerate(self.pivots):
            if p:
                root = [(p, 0)] + [(R[i][k], -I[i][k] if I else 0)
                                   for i in range(k + 1, len(R))]
                g = math.gcd(*(x for z in root for x in z))
                out.append((k, Fraction(g * g, p * prev * self.scale),
                            [(x // g, y // g) for x, y in root]))
                prev = p
        return out


def ldlt_psd_qc(M):
    """Exact PSD decision + factorization for a hermitian matrix.

    ``M`` is a hermitian QC matrix, or the triple ``(R, I, scale)`` of
    integer matrices with M = (R + iI)/scale, or of jet matrices
    (:class:`ncsos.rcf.RcfScalar`) with scale 1, of which only the lower
    triangles are read.  Returns ``(ok, factor, fail)`` with the
    :class:`IntegerLDL` ``factor`` of M.  The classical zero-pivot rule
    applies: a PSD matrix with a zero diagonal entry must have the whole
    row zero, so pivot-free LDL* fully decides semidefiniteness.
    ``fail`` carries ``(row, col_or_None)`` of the first violation.
    """
    if isinstance(M, tuple):
        R, I, scale = M
        R, I = ([row[:i + 1] for i, row in enumerate(X)] for X in (R, I))
        I = I if any(map(any, I)) else None
    elif all(M[i][j] == M[j][i].conjugate() for i in range(len(M))
             for j in range(i, len(M))):
        R, I, scale = _integer_lower(M)
    else:
        raise ValueError("ldlt_psd_qc: matrix is not hermitian")
    pivots, fail = _bareiss_ldlt(R, I)
    return fail is None, IntegerLDL(pivots, R, I, scale), fail


def negative_vector(factor, fail):
    """(re, im) integer pairs of a v with v* M v < 0, read off the
    ``factor`` and ``fail`` that :func:`ldlt_psd_qc` returned for a
    rational hermitian M that is not PSD.  The elimination stopped at
    its first violation, leaving M = L diag(d) L* + (0 + S), S the Schur
    complement; v solves L* v = y for y = e_k at a negative pivot k, or
    at a zero pivot k with S_jk = a != 0 for y = e_j + x e_k,
    x = m (i sgn Im a - sgn Re a), so y* S y = S_jj - 2m(|Re a| + |Im a|),
    negative for a large enough power of two m."""
    R, I, pivots = factor.R, factor.I, factor.pivots
    j, k = fail
    v = [QC(int(i == j)) for i in range(len(R))]
    if k is not None:
        re, im = R[j][k], I[j][k] if I else 0
        m = 1 << (max(R[j][j], 0) // (abs(re) + abs(im))).bit_length()
        v[k] = QC(-m * ((re > 0) - (re < 0)), m * ((im > 0) - (im < 0)))
    for c in reversed(range(j if k is None else k)):
        if pivots[c]:
            v[c] = -sum((QC(R[i][c], -I[i][c] if I else 0) * v[i]
                         for i in range(c + 1, j + 1) if v[i]),
                        QC(0)) / pivots[c]
    den = math.lcm(*(x.denominator for z in v for x in (z.re, z.im)))
    return [(int(z.re * den), int(z.im * den)) for z in v]


def unit_lower_inverse(L):
    """Exact inverse of a unit lower-triangular matrix.

    Forward substitution over the entry field; the result is again unit
    lower-triangular.  Assumes (and does not re-check) a unit diagonal.
    """
    n = len(L)
    if n == 0:
        return []
    one = L[0][0]
    zero = one - one
    Y = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            s = zero
            for k in range(j, i):
                s = s + L[i][k] * Y[k][j]
            Y[i][j] = -s
    return Y

