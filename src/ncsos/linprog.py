"""Exact two-phase simplex over the rationals, in integer arithmetic.

Standard form only: ``min c.x  s.t.  A x = b, x >= 0``.  Callers encode
boxes, frees and inequalities with splits and slacks.

The tableau ``[A | I | b]`` (one artificial column per row) is kept as
``T = M / D``: ``M`` is a list of integer rows with the right-hand side last,
and ``D > 0`` is one common integer denominator.  Each row of ``[A | b]`` is
first scaled to integers by the lcm ``s_i`` of its denominators; ``D``
starts as the product of the ``s_i`` and is, after every pivot, the absolute
determinant of the current basis in that integer system.  By Cramer's rule
``M`` then stays integral, so a pivot on ``p = M[r][e]`` is the exact
integer division ``(p*M[i][j] - M[i][e]*M[r][j]) // D`` of Bareiss and
Edmonds (fraction-free elimination), and the new denominator is ``|p|``.
No ``Fraction`` is formed until the answer is read off.

Bland's rule picks the entering column (least index with a negative reduced
cost) and the leaving row (least ratio, ties to the least basic index), which
guarantees termination without perturbation.  A slack crash first swaps each
column that is zero outside one row, where it enters at a level >= 0, for
that row's artificial.  The final tableau exposes exact dual multipliers,
used as Farkas certificates when a system is infeasible.  Every answer is
checked against the original data before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm, prod
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpResult:
    __slots__ = ("status", "x", "obj", "y")

    def __init__(self, status, x=None, obj=None, y=None):
        self.status = status
        self.x = x          # primal solution (original variables)
        self.obj = obj      # optimal value of c.x
        self.y = y          # duals for the rows of A (original orientation)

    def __repr__(self):
        return f"LpResult({self.status}, obj={self.obj})"


def _pivot(M, D, basis, r, e):
    """Pivot the tableau ``M / D`` on (r, e) in place; returns the new D."""
    pr = M[r]
    p = pr[e]
    if p < 0:    # only on a row at level zero: a crash or a leaving artificial
        pr = M[r] = [-a for a in pr]
        p = -p
    support = [(j, a) for j, a in enumerate(pr) if a]
    for i, row in enumerate(M):
        if i == r:
            continue
        f = row[e]
        if f:
            new = [a * p // D for a in row] if p != D else row[:]
            for j, a in support:
                new[j] = (p * row[j] - f * a) // D
            M[i] = new
        elif p != D:
            M[i] = [a * p // D for a in row]
    basis[r] = e
    return p


def _run_simplex(M, D, basis, cost, allowed):
    """Bland simplex on ``M / D`` (in place) for the integer ``cost``.

    Returns ``(OPTIMAL or UNBOUNDED, D)``.
    """
    while True:
        # reduced cost c_j - sum_i c_{basis_i} T[i][j], scaled by D
        costed = [(cost[bi], row) for bi, row in zip(basis, M) if cost[bi]]
        entering = next(
            (j for j in allowed
             if cost[j] * D < sum(cb * row[j] for cb, row in costed)), -1)
        if entering < 0:
            return OPTIMAL, D
        # ratio test M[i][-1] / M[i][e], Bland tie-break on basic index
        best = -1
        for i, row in enumerate(M):
            t = row[entering]
            if t > 0:
                if best >= 0:
                    lhs, rhs = row[-1] * den, num * t
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[best]):
                        continue
                best, num, den = i, row[-1], t
        if best < 0:
            return UNBOUNDED, D
        D = _pivot(M, D, basis, best, entering)


def solve_lp(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
             c: Sequence[Fraction]) -> LpResult:
    """min c.x s.t. A x = b, x >= 0 -- exact, deterministic.

    Every entry is an ``int`` or a ``Fraction``: the tableau reads its
    numerator and denominator as they are, and the answer holds an ``int``
    wherever a value is integral.

    On INFEASIBLE the returned ``y`` is a Farkas certificate:
    ``y.A <= 0`` componentwise and ``y.b > 0``.
    On OPTIMAL ``y`` solves the dual (``y = c_B B^-1``) and the objective
    equals ``y.b``.  A result that fails its exact check against ``A`` and
    ``b`` raises ``RuntimeError`` instead of being returned.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    sign = [-1 if v < 0 else 1 for v in b]
    D = prod(lcm(bi.denominator, *(v.denominator for v in row))
             for row, bi in zip(A, b))
    # M = D * [sign*A | I | sign*b]; artificial columns n..n+m-1
    M = []
    for i, (row, bi) in enumerate(zip(A, b)):
        w = sign[i] * D
        M.append([w * v.numerator // v.denominator for v in row]
                 + [D if k == i else 0 for k in range(m)]
                 + [w * bi.numerator // bi.denominator])
    basis = list(range(n, n + m))

    # slack crash, least index first; its pivots only rescale the other
    # rows, so the zero pattern read from the initial rows stays valid
    for j, col in enumerate(islice(zip(*M), n)):
        if col.count(0) == m - 1:
            i = next(i for i, a in enumerate(col) if a)
            if basis[i] >= n and (M[i][j] > 0 or not M[i][-1]):
                D = _pivot(M, D, basis, i, j)

    # phase 1
    cost1 = [0] * n + [1] * m
    status, D = _run_simplex(M, D, basis, cost1, range(n + m))
    if status != OPTIMAL:     # phase 1 is always bounded below by 0
        raise RuntimeError(f"phase 1 ended {status}")
    if sum(row[-1] for bi, row in zip(basis, M) if bi >= n) > 0:
        # duals of "max y.b s.t. y.A <= 0, y <= 1" are a Farkas certificate
        y = _duals(M, D, basis, cost1, 1, n, sign)
        return _checked(A, b, LpResult(INFEASIBLE, y=y))

    # remove artificials from the basis (redundant rows get dropped)
    i = 0
    while i < len(M):
        if basis[i] >= n:
            piv = next((j for j in range(n) if M[i][j]), None)
            if piv is None:
                del M[i], basis[i]
                continue
            D = _pivot(M, D, basis, i, piv)
        i += 1

    # phase 2 (artificials barred from entering), on the cost scaled to
    # integers by the lcm of its denominators
    scale = lcm(*(v.denominator for v in c))
    cost2 = [scale * v.numerator // v.denominator for v in c] + [0] * m
    status, D = _run_simplex(M, D, basis, cost2, range(n))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [0] * n
    for bi, row in zip(basis, M):
        if bi < n:
            x[bi] = _ratio(row[-1], D)
    obj = sum(ci * xi for ci, xi in zip(c, x))
    y = _duals(M, D, basis, cost2, scale, n, sign)
    return _checked(A, b, LpResult(OPTIMAL, x=x, obj=obj, y=y))


def _duals(M, D, basis, cost, scale, n, sign):
    """y_i = c_B . (B^-1 e_i), read from the artificial columns.

    ``cost`` is the objective times ``scale``, so y is the sum over D*scale.
    """
    costed = [(cost[bi], row) for bi, row in zip(basis, M) if cost[bi]]
    return [_ratio(s * sum(cb * row[n + i] for cb, row in costed), D * scale)
            for i, s in enumerate(sign)]


def _ratio(num, den):
    """num / den: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _over_lcm(vs):
    """``(d, [v * d for v in vs])``, with d the lcm of the denominators."""
    d = lcm(*(v.denominator for v in vs))
    return d, [v.numerator * (d // v.denominator) for v in vs]


def _checked(A, b, res):
    """``res`` after an exact check against the original ``A`` and ``b``.

    OPTIMAL: ``A x = b`` and ``x >= 0``.  INFEASIBLE: ``y.A <= 0`` and
    ``y.b > 0``.  Both run on ``d x`` or ``d y``, integers over the lcm d of
    the denominators.  A failure means the tableau arithmetic is broken, so
    it raises rather than letting a wrong verdict through.
    """
    if res.status == OPTIMAL:
        d, X = _over_lcm(res.x)
        support = [(j, v) for j, v in enumerate(X) if v]
        ok = all(v > 0 for _, v in support) and all(
            sum(row[j] * v for j, v in support if row[j]) == d * bi
            for row, bi in zip(A, b))
    else:
        _, Y = _over_lcm(res.y)
        rows = [(yi, row, bi) for yi, row, bi in zip(Y, A, b) if yi]
        ok = sum(yi * bi for yi, _, bi in rows) > 0 and all(
            sum(yi * row[j] for yi, row, _ in rows if row[j]) <= 0
            for j in range(len(A[0])))
    if not ok:
        raise RuntimeError(f"LP result fails its exact {res.status} check")
    return res
