"""Exact Gauss-Jordan against the textbook dense elimination."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from ncsos import exactla
from ncsos.qc import QC
from ncsos.rcf import RcfScalar


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
    # mostly jets with a nonzero standard part: the others have no inverse
    "rcf": lambda rng: RcfScalar(
        {0: F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)),
         1: _fraction(rng)} if rng.random() < 0.6 else {}, order=4),
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
