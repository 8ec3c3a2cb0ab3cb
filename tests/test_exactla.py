"""Exact Gauss-Jordan against the textbook dense elimination."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from ncsos import exactla
from ncsos.qc import QC


def _dense_rref(A, augment=None):
    """Reference: divide and eliminate whole rows, zeros included."""
    rows = [list(r) + (list(e) if augment else [])
            for r, e in zip(A, augment or A)]
    m, n = len(rows), len(rows[0])
    limit = n if augment is None else len(A[0])
    pivots, r = [], 0
    for c in range(limit):
        p = next((i for i in range(r, m) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def _fraction(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.6 \
        else F(0)


SCALARS = {
    "fraction": _fraction,
    "qc": lambda rng: QC(_fraction(rng), _fraction(rng)),
}


@pytest.mark.parametrize("kind", sorted(SCALARS))
def test_rref_matches_dense_elimination(kind):
    rng = random.Random(kind)
    draw = SCALARS[kind]
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        A = [[draw(rng) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:       # a dependent row
            A[-1] = [a + b for a, b in zip(A[0], A[1 % (m - 1)])]
        b = [[draw(rng)] for _ in range(m)]
        assert exactla.rref(A) == _dense_rref(A)
        assert exactla.rref(A, augment=b) == _dense_rref(A, augment=b)


def test_integer_input_gives_fractions():
    # an int pivot divides as a Fraction, never as a float
    rows, pivots = exactla.rref([[2, 1]])
    kernel = exactla.nullspace([[2, 1]])
    x = exactla.solve_linear([[2]], [1])
    assert rows == [[1, F(1, 2)]] and pivots == [0]
    assert kernel == [[F(-1, 2), 1]] and x == [F(1, 2)]
    results = [rows[0], x] + kernel + exactla.nullspace([[1, 0, 3]])
    results.append(exactla.solve_linear([[1, 0, 2], [0, 0, 0]], [0, 0]))
    assert all(type(v) is F for vec in results for v in vec)
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        assert exactla.rref(A) == _dense_rref([[F(a) for a in r] for r in A])
        assert not any(type(v) is float for r in exactla.rref(A)[0]
                       for v in r)


# ---------------------------------------------------------------------------
# LDL* with the zero-pivot rule
# ---------------------------------------------------------------------------

def _textbook_ldlt(M):
    """Reference: right-looking QC LDL* with the zero-pivot rule."""
    n = len(M)
    A = [list(row) for row in M]
    L = [[QC(1) if i == j else QC(0) for j in range(n)] for i in range(n)]
    d = [F(0)] * n
    for k in range(n):
        piv = A[k][k]
        if piv.re < 0:
            return False, None, None, (k, None)
        if piv.re == 0:
            for j in range(k + 1, n):
                if A[j][k]:
                    return False, None, None, (j, k)
            continue
        d[k] = piv.re
        for i in range(k + 1, n):
            L[i][k] = A[i][k] / piv
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                A[i][j] = A[i][j] - L[i][k] * piv * L[j][k].conjugate()
                A[j][i] = A[i][j].conjugate()
    return True, d, L, None


def _hermitian(rng, n, rank, complex_entries, kind):
    """B B* for an n x rank B, then made indefinite or given zero rows."""
    def entry():
        re = F(rng.randint(-9, 9), rng.randint(1, 12))
        im = F(rng.randint(-9, 9), rng.randint(1, 12)) if complex_entries \
            else F(0)
        return QC(re, im) if rng.random() < 0.7 else QC(0)
    B = [[entry() for _ in range(rank)] for _ in range(n)]
    M = [[sum((B[i][k] * B[j][k].conjugate() for k in range(rank)), QC(0))
          for j in range(n)] for i in range(n)]
    if kind == "indefinite":
        i = rng.randrange(n)
        M[i][i] = M[i][i] - QC(F(rng.randint(1, 5), 3))
    elif kind in ("zero row", "zero pivot"):
        i = rng.randrange(n)
        for j in range(n):
            M[i][j] = M[j][i] = QC(0)
        if kind == "zero pivot":    # a zero diagonal entry, its row not
            j = (i + rng.randrange(1, n)) % n
            M[i][j] = QC(1, 1 if complex_entries else 0)
            M[j][i] = M[i][j].conjugate()
    return M


def _quadratic_form(M, v):
    """v* M v for v given as (re, im) pairs."""
    v = [QC(*z) for z in v]
    return sum((a.conjugate() * M[i][j] * b for i, a in enumerate(v)
                for j, b in enumerate(v)), QC(0))


@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["definite", "semidefinite", "zero row",
                                  "indefinite", "zero pivot"])
def test_ldlt_matches_textbook_elimination(complex_entries, kind):
    rng = random.Random(f"{kind}-{complex_entries}")
    outcomes, zero_pivots = set(), 0
    for _ in range(40):
        n = rng.randint(1 + (kind == "zero pivot"), 8)
        rank = n if kind == "definite" else rng.randint(0, n - 1)
        M = _hermitian(rng, n, rank, complex_entries, kind)
        ok, factor, fail = exactla.ldlt_psd_qc(M)
        got = (ok, *factor.ldl(QC), fail) if ok else (ok, None, None, fail)
        assert got == _textbook_ldlt(M)
        if not ok:          # read off the factor the failure left
            value = _quadratic_form(M, exactla.negative_vector(factor, fail))
            assert value.im == 0 and value.re < 0
        outcomes.add(got[0])
        if got[0]:          # one positive pivot per unit of rank
            positive = sum(1 for x in got[1] if x)
            assert positive == len(exactla.rref(M)[1])
            zero_pivots += positive < n
    assert outcomes == ({False, True} if kind == "indefinite" else
                        {False} if kind == "zero pivot" else {True})
    if kind in ("semidefinite", "zero row"):
        assert zero_pivots >= 20


@pytest.mark.parametrize("complex_entries", [False, True],
                         ids=["real", "complex"])
@pytest.mark.parametrize("kind", ["definite", "semidefinite", "zero row"])
def test_squares_read_off_the_integer_factor_sum_to_the_matrix(
        complex_entries, kind):
    # one square per positive pivot, so rank-deficient matrices and zero
    # pivots give fewer; each root is primitive over the Gaussian integers,
    # and the same integers over a larger denominator give the same squares
    rng = random.Random(f"squares-{kind}-{complex_entries}")
    short = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        rank = n if kind == "definite" else rng.randint(0, n - 1)
        M = _hermitian(rng, n, rank, complex_entries, kind)
        ok, factor, _ = exactla.ldlt_psd_qc(M)
        assert ok
        squares = factor.squares()
        total = [[QC(0)] * n for _ in range(n)]
        for k, weight, root in squares:
            assert weight > 0 and len(root) == n - k
            assert math.gcd(*(x for z in root for x in z)) == 1
            r = [QC(0)] * k + [QC(*z) for z in root]
            for i in range(n):
                for j in range(n):
                    total[i][j] += r[i].conjugate() * r[j] * weight
        assert total == M
        assert len(squares) == len(exactla.rref(M)[1])
        short += len(squares) < n
        scale = 3 * math.lcm(*(x.denominator for row in M for z in row
                               for x in (z.re, z.im)))
        R, I = ([[int(x * scale) for x in row] for row in part]
                for part in ([[z.re for z in row] for row in M],
                             [[z.im for z in row] for row in M]))
        assert exactla.ldlt_psd_qc((R, I, scale))[1].squares() == squares
    assert short >= (0 if kind == "definite" else 20)


def test_ldlt_rejects_non_hermitian_input():
    with pytest.raises(ValueError, match="not hermitian"):
        exactla.ldlt_psd_qc([[QC(1), QC(2)], [QC(3), QC(1)]])
