"""Exact linear algebra over duck-typed fields.

Every routine works on lists of lists of scalars supporting ``+ - * /``,
unary ``-`` and truthiness (``bool(x)`` false exactly when ``x == 0``).
``fractions.Fraction`` and :class:`ncsos.qc.QC` both qualify, as do the
truncated infinitesimal scalars from :mod:`ncsos.rcf`.  Nothing here ever
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

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


def solve_linear(A, b):
    """A particular solution x of ``A x = b`` or ``None`` if inconsistent.

    Free variables are fixed to zero, so the answer is deterministic in the
    column order.
    """
    if not A:
        return [] if not any(bool(x) for x in b) else None
    n = len(A[0])
    rows, pivots = rref(A, augment=[[x] for x in b])
    zero = A[0][0] - A[0][0]
    x = [zero] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    # consistency: rows past the pivots must have zero rhs
    for i in range(len(pivots), len(rows)):
        if rows[i][n]:
            return None
    # rows with pivots already satisfied by construction; verify lazily is
    # left to callers' own invariants.
    return x


def nullspace(A):
    """Basis of the kernel of ``A`` (list of coordinate vectors)."""
    if not A:
        return []
    n = len(A[0])
    rows, pivots = rref(A)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    zero = A[0][0] - A[0][0]
    one = None
    for row in A:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        # zero map: kernel is everything; caller supplies field via entries
        raise ValueError("nullspace of identically-zero matrix needs a field hint; "
                         "pass at least one nonzero entry or handle upstream")
    basis = []
    for fc in free_cols:
        v = [zero] * n
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def char_poly(M, one):
    """Coefficients of ``det(lambda*I - M)`` by Faddeev-LeVerrier.

    Returns ``[c_0, c_1, ..., c_{n-1}, c_n]`` with ``c_n == 1`` (as the
    supplied ``one``); only exact divisions by integers occur, so any field
    of characteristic zero works.
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

def is_hermitian_qc(M: Sequence[Sequence[QC]]) -> bool:
    n = len(M)
    for i in range(n):
        for j in range(i, n):
            if M[i][j] != M[j][i].conjugate():
                return False
    return True


def ldlt_psd_qc(M: Sequence[Sequence[QC]]):
    """Exact PSD decision + factorization for a hermitian QC matrix.

    Returns ``(ok, diag, L, fail)``.  On success ``M == L @ diag(d) @ L*``
    with real rational ``d >= 0`` and unit lower-triangular ``L``.  The
    classical zero-pivot rule applies: a PSD matrix with a zero diagonal
    entry must have the whole row zero, so pivot-free LDL* fully decides
    semidefiniteness.  ``fail`` carries ``(row, col_or_None)`` of the first
    violation for diagnostics.
    """
    n = len(M)
    if not is_hermitian_qc(M):
        raise ValueError("ldlt_psd_qc: matrix is not hermitian")
    A = [[M[i][j] for j in range(n)] for i in range(n)]
    L = [[QC(1) if i == j else QC(0) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for k in range(n):
        piv = A[k][k]
        if piv.im != 0:
            raise ValueError("non-real diagonal in hermitian matrix")
        if piv.re < 0:
            return False, None, None, (k, None)
        if piv.re == 0:
            for j in range(k + 1, n):
                if A[j][k]:
                    return False, None, None, (j, k)
            d[k] = Fraction(0)
            continue
        d[k] = piv.re
        for i in range(k + 1, n):
            L[i][k] = A[i][k] / piv
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                A[i][j] = A[i][j] - L[i][k] * piv * L[j][k].conjugate()
                A[j][i] = A[i][j].conjugate()
    return True, d, L, None


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

