"""Exact two-phase simplex over the rationals.

Small, deterministic, and entirely ``Fraction``-based: Bland's rule for both
entering and leaving choices guarantees termination without perturbation,
and the final tableau exposes exact dual multipliers (used as Farkas
certificates when a system is infeasible).

Standard form only: ``min c.x  s.t.  A x = b, x >= 0``.  Callers encode
boxes, frees and inequalities with splits and slacks; problems here are desk
scale (tens of variables), so the dense tableau is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
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


def _pivot(T, rhs, basis, r, e):
    pr = T[r]
    pv = pr[e]
    inv = Fraction(1) / pv
    T[r] = [a * inv for a in pr]
    rhs[r] *= inv
    for i in range(len(T)):
        if i == r:
            continue
        f = T[i][e]
        if f:
            T[i] = [a - f * b for a, b in zip(T[i], T[r])]
            rhs[i] -= f * rhs[r]
    basis[r] = e


def _run_simplex(T, rhs, basis, cost, allowed):
    """Bland simplex on tableau T (in place). Returns OPTIMAL or UNBOUNDED."""
    m = len(T)
    while True:
        # reduced costs from scratch: r_j = c_j - sum_i c_{basis_i} T[i][j]
        cb = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in allowed:
            r = cost[j]
            for i in range(m):
                if cb[i] and T[i][j]:
                    r -= cb[i] * T[i][j]
            if r < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        # ratio test, Bland tie-break on basic variable index
        best = None
        for i in range(m):
            t = T[i][entering]
            if t > 0:
                ratio = rhs[i] / t
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        _pivot(T, rhs, basis, best[1], entering)


def solve_lp(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
             c: Sequence[Fraction]) -> LpResult:
    """min c.x s.t. A x = b, x >= 0 -- exact, deterministic.

    On INFEASIBLE the returned ``y`` is a Farkas certificate:
    ``y.A <= 0`` componentwise and ``y.b > 0``.
    On OPTIMAL ``y`` solves the dual (``y = c_B B^-1``) and the objective
    equals ``y.b``.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    T = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    sign = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            T[i] = [-v for v in T[i]]
            rhs[i] = -rhs[i]
            sign[i] = -1
    # artificial columns n..n+m-1
    for i in range(m):
        T[i].extend(Fraction(1) if k == i else Fraction(0) for k in range(m))
    basis = list(range(n, n + m))

    # phase 1
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    status = _run_simplex(T, rhs, basis, cost1, range(n + m))
    if status != OPTIMAL:     # phase 1 is always bounded below by 0
        raise RuntimeError(f"phase 1 ended {status}")
    p1 = sum(cost1[basis[i]] * rhs[i] for i in range(len(T)))
    if p1 > 0:
        y = _duals(T, basis, cost1, n, m, sign)
        # duals of "max y.b s.t. y.A <= 0, y <= 1"; flip to Farkas direction
        return LpResult(INFEASIBLE, y=y)

    # remove artificials from the basis (redundant rows get dropped)
    i = 0
    while i < len(T):
        if basis[i] >= n:
            piv = next((j for j in range(n) if T[i][j]), None)
            if piv is None:
                del T[i], rhs[i], basis[i]
                continue
            _pivot(T, rhs, basis, i, piv)
        i += 1

    # phase 2 (artificials barred from entering)
    cost2 = list(c) + [Fraction(0)] * m
    status = _run_simplex(T, rhs, basis, cost2, range(n))
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rhs[i]
    obj = sum(ci * xi for ci, xi in zip(c, x))
    y = _duals(T, basis, cost2, n, m, sign)
    return LpResult(OPTIMAL, x=x, obj=obj, y=y)


def _duals(T, basis, cost, n, m, sign):
    """y_i = c_B . (B^-1 e_i), read from the artificial columns."""
    y = []
    for i in range(m):
        col = n + i
        acc = Fraction(0)
        for k in range(len(T)):
            cb = cost[basis[k]]
            if cb and T[k][col]:
                acc += cb * T[k][col]
        y.append(sign[i] * acc)
    return y
