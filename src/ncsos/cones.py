"""Finitely generated rational cones and infinitesimal-order separation.

A point outside a finitely generated cone in Q^n can always be split from it
by a *stack* of rational covectors evaluated lexicographically: stage 1 is
worth 1, stage i is worth ``level_infinitesimal(i-1)``.  Stage 1 is the
negated Farkas certificate of the membership LP; the later stages follow a
descending flag of subspaces, one exact cover LP per stage, on the
generators the stages before leave at zero.  The result satisfies, with
phi the stacked functional:

* ``phi(x) < 0``,
* ``phi(g) >= 0`` for every generator,
* ``phi(g) > 0`` for every generator outside the lineality space,
* ``phi == 0`` on the lineality space.

Arithmetic is exact: a value is an ``int`` when integral (the exact LP
pivots in integers) and a ``Fraction`` otherwise.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from typing import Sequence

from . import exactla, linprog
from .qc import _frac
from .rcf import RcfScalar, level_infinitesimal

Vec = tuple


def _num(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    if isinstance(x, (int, str)):
        try:
            return int(x)
        except ValueError:      # "1/2", "0.5", "1e2"
            pass
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


def _vec(xs) -> Vec:
    return tuple(_num(x) for x in xs)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class ConeV:
    """cone(generators) in Q^dim. Generators are kept as given (no pruning)."""

    __slots__ = ("dim", "generators")

    def __init__(self, dim: int, generators: Sequence[Sequence]):
        gens = tuple(_vec(g) for g in generators)
        for g in gens:
            if len(g) != dim:
                raise ValueError(f"generator {g} does not have dim {dim}")
        self.dim = dim
        self.generators = gens

    def __repr__(self):
        return f"ConeV(dim={self.dim}, {len(self.generators)} generators)"


class MembershipResult:
    __slots__ = ("inside", "coefficients", "certificate")

    def __init__(self, inside, coefficients=None, certificate=None):
        self.inside = inside
        self.coefficients = coefficients  # nonneg combination when inside
        self.certificate = certificate    # covector: <=0 on gens, >0 at x

    def __bool__(self):
        return self.inside

    def __repr__(self):
        return f"MembershipResult(inside={self.inside})"


class PointInsideCone(ValueError):
    """separate_point was handed a member of the cone."""

    def __init__(self, coefficients):
        super().__init__("point lies in the cone; separation is impossible")
        self.coefficients = coefficients


def membership(C: ConeV, x) -> MembershipResult:
    """Exact membership of x in cone(C), LP-certified both ways."""
    x = _vec(x)
    if len(x) != C.dim:
        raise ValueError("point dimension mismatch")
    k = len(C.generators)
    if k == 0:
        if any(x):
            cert = tuple(xi for xi in x)  # <x, .> is positive at x
            return MembershipResult(False, certificate=cert)
        return MembershipResult(True, coefficients=[])
    A = [[C.generators[j][i] for j in range(k)] for i in range(C.dim)]
    res = linprog.solve_lp(A, list(x), [0] * k)
    if res.status == linprog.OPTIMAL:
        return MembershipResult(True, coefficients=res.x)
    if res.status != linprog.INFEASIBLE:
        raise RuntimeError(f"membership LP ended {res.status}")
    y = tuple(res.y)
    # Farkas: y.g <= 0 for every generator, y.x > 0
    if not (all(_dot(y, g) <= 0 for g in C.generators) and _dot(y, x) > 0):
        raise RuntimeError("membership LP returned a bad Farkas certificate")
    return MembershipResult(False, certificate=y)


def lineality(C: ConeV):
    """Basis of span{g_j : -g_j in C} = C ∩ -C for finitely generated C."""
    two_sided = [g for g in C.generators
                 if membership(C, tuple(-c for c in g)).inside]
    if not two_sided:
        return []
    rows, pivots = exactla.rref([list(g) for g in two_sided])
    return [tuple(rows[i]) for i in range(len(pivots))]


def _in_span(basis, v) -> bool:
    if not basis:
        return not any(v)
    A = [[basis[j][i] for j in range(len(basis))] for i in range(len(v))]
    return exactla.solve_linear(A, list(v)) is not None


class LexFunctional:
    """A stack of covectors evaluated with infinitesimal level weights."""

    __slots__ = ("dim", "stages")

    def __init__(self, dim, stages):
        self.dim = dim
        self.stages = tuple(_vec(s) for s in stages)
        for s in self.stages:
            if len(s) != dim:
                raise ValueError("stage dimension mismatch")

    def __repr__(self):
        return f"LexFunctional(dim={self.dim}, {len(self.stages)} stages)"

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim,
            "stages": [[str(c) for c in s] for s in self.stages],
        })

    @staticmethod
    def from_json(text: str) -> "LexFunctional":
        data = json.loads(text)
        return LexFunctional(data["dim"], data["stages"])

    def sign_at(self, v) -> int:
        """The sign of :func:`evaluate_lex` at v, without the jet: each
        level is infinitesimal against the one before, so the first
        nonzero stage value decides."""
        val = next((x for x in (_dot(s, v) for s in self.stages) if x), 0)
        return (val > 0) - (val < 0)


def evaluate_lex(f: LexFunctional, v) -> RcfScalar:
    """phi(v) as a jet: stage i carries weight level_infinitesimal(i-1)."""
    v = _vec(v)
    if len(v) != f.dim:
        raise ValueError("vector dimension mismatch")
    acc = RcfScalar.zero()
    for i, stage in enumerate(f.stages):
        val = _dot(stage, v)
        if val:
            acc = acc + level_infinitesimal(i) * val
    return acc


# ---------------------------------------------------------------------------
# stage LPs
# ---------------------------------------------------------------------------

def _stage_lp(h_basis, gens):
    """One flag stage on the subspace spanned by h_basis.

    Variables: the covector phi = sum lambda_j h_j (lambda free, split), plus
    a score s_g in [0,1] per generator.  Constraints: phi(g) >= s_g and the
    coordinates of phi in [-1,1]; the LP maximizes the total score.

    Returns (phi, opt) with phi a covector in ambient coordinates.
    """
    k = len(h_basis)
    n = len(h_basis[0])
    ng = len(gens)
    # columns: lam+ (k) | lam- (k) | s (ng) | slacks appended below
    rows, rhs, signs = [], [], []

    def add(core, value, sign):
        """the row  core . x + sign * slack = value"""
        rows.append(core)
        rhs.append(value)
        signs.append(sign)

    pad = [0] * ng
    for idx, g in enumerate(gens):
        coeffs = [_dot(h, g) for h in h_basis]
        row = coeffs + [-c for c in coeffs] + pad
        row[2 * k + idx] = -1
        add(row, 0, -1)                     # phi(g) - s_g - u = 0
        row = [0] * (2 * k + ng)
        row[2 * k + idx] = 1
        add(row, 1, 1)                      # s_g + v = 1
    for c in range(n):
        coord = [h[c] for h in h_basis]     # phi's coordinate c
        add(coord + [-v for v in coord] + pad, 1, 1)    # coord + p = 1
        add([-v for v in coord] + coord + pad, 1, 1)    # -coord + q = 1

    # slack columns follow the core ones: one per row, with its sign
    m = len(rows)
    for i in range(m):
        rows[i] = rows[i] + [signs[i] if j == i else 0 for j in range(m)]
    cost = [0] * (2 * k) + [-1] * ng + [0] * m
    res = linprog.solve_lp(rows, rhs, cost)
    if res.status != linprog.OPTIMAL:
        raise RuntimeError(f"stage LP ended {res.status}")
    lam = [res.x[j] - res.x[k + j] for j in range(k)]
    phi = tuple(sum(lam[j] * h_basis[j][i] for j in range(k))
                for i in range(n))
    return phi, -res.obj


def separate_point(C: ConeV, x) -> LexFunctional:
    """Stacked separating functional for x not in C.

    Stage 1 is the negated Farkas certificate of the membership LP: it is
    nonnegative on every generator, zero on the lineality space and
    negative at x.  The flag's cover stages then score the generators it
    leaves at zero, on its kernel.
    """
    inside = membership(C, x)
    if inside:
        raise PointInsideCone(inside.coefficients)
    phi = tuple(-c for c in inside.certificate)
    gens = [g for g in C.generators if not _dot(phi, g)]
    h_basis = _restrict(_identity(C.dim), phi)
    return LexFunctional(C.dim, [phi] + _cover_stages(h_basis, gens))


def _identity(n):
    return [tuple(int(i == c) for i in range(n)) for c in range(n)]


def _cover_stages(h_basis, gens):
    """The flag's cover stages on span(h_basis), until no generator scores;
    each drops the generators it scores and restricts to its kernel."""
    stages = []
    while gens and h_basis:
        phi, opt = _stage_lp(h_basis, gens)
        if opt == 0:
            break  # the generators left span a subspace: the lineality
        stages.append(phi)
        gens = [g for g in gens if _dot(phi, g) == 0]
        h_basis = _restrict(h_basis, phi)
    return stages


def _restrict(h_basis, phi):
    """Basis of {v in span(h_basis) : phi(v) = 0} in primitive integer
    combinations of h_basis: with r the row phi(h_j) in integers and p its
    first nonzero place, (|r_p| h_j - sgn(r_p) r_j h_p) / gcd(r_p, r_j)."""
    row = [_dot(phi, h) for h in h_basis]
    if not any(row):
        return list(h_basis)
    d = lcm(*(c.denominator for c in row))
    r = [int(c * d) for c in row]
    p = next(j for j, c in enumerate(r) if c)
    rp, hp = r[p], h_basis[p]
    sign = 1 if rp > 0 else -1
    out = []
    for j, (rj, hj) in enumerate(zip(r, h_basis)):
        if j != p:
            g = gcd(rp, rj)
            a, b = abs(rp) // g, -sign * rj // g
            out.append(tuple(a * u + b * v for u, v in zip(hj, hp)))
    return out


def extend_functional(C: ConeV, h_basis: Sequence[Sequence],
                      phi_h: Sequence) -> LexFunctional:
    """Extend a functional given on a subspace H to a stacked functional
    nonnegative on C, agreeing with the original on H and strictly positive
    on every generator outside H.

    Precondition (checked): (C + H) ∩ -(C + H) = H, and the given values are
    nonnegative on the generators that lie inside H.  The H-values stay at
    level 0; the strictness stages live strictly below them.
    """
    h_basis = [_vec(h) for h in h_basis]
    phi_h = _vec(phi_h)
    if len(phi_h) != len(h_basis):
        raise ValueError("one value per H-basis vector required")
    n = C.dim
    for h in h_basis:
        if len(h) != n:
            raise ValueError("H basis dimension mismatch")
    # cone C + H and its lineality
    ext_gens = list(C.generators) + h_basis + [tuple(-c for c in h)
                                               for h in h_basis]
    big = ConeV(n, ext_gens)
    lin = lineality(big)
    if not _same_span(lin, h_basis):
        raise ValueError("(C+H) ∩ -(C+H) must equal H for the extension")
    ext = _min_norm_extension(h_basis, phi_h, n)
    inside_h = [g for g in C.generators if _in_span(h_basis, g)]
    for g in inside_h:
        if _dot(ext, g) < 0:
            raise ValueError("given functional is negative on a generator in H")
    outside = [g for g in C.generators if not _in_span(h_basis, g)]
    if any(_dot(ext, g) < 0 for g in outside):
        ext = _nonneg_extension(h_basis, phi_h, C.generators, n)
    # strictness stages: the flag on C+H
    psi_stages = _cover_stages(_identity(n), ext_gens)
    f = LexFunctional(n, [ext] + psi_stages)
    for g in C.generators:
        sign = f.sign_at(g)
        if sign < 0 or (not _in_span(h_basis, g) and sign <= 0):
            raise RuntimeError("extension failed its contract on a generator")
    return f


def _same_span(b1, b2) -> bool:
    return all(_in_span(b1, v) for v in b2) and all(_in_span(b2, v) for v in b1)


def _min_norm_extension(h_basis, phi_h, n):
    """The covector inside span(H) taking the given values on the basis."""
    if not h_basis:
        return (0,) * n
    k = len(h_basis)
    gram = [[_dot(h_basis[i], h_basis[j]) for j in range(k)] for i in range(k)]
    mu = exactla.solve_linear(gram, list(phi_h))
    if mu is None:
        raise RuntimeError("H basis must be linearly independent")
    return tuple(sum(mu[j] * h_basis[j][i] for j in range(k))
                 for i in range(n))


def _nonneg_extension(h_basis, phi_h, gens, n):
    """LP fallback: f with f(h_j) = phi_h_j and f(g) >= 0 on all generators.

    Exists by Farkas whenever the precondition holds; minimizes sum f(g) for
    determinism.
    """
    # variables: f+ (n) | f- (n) | slacks per generator
    ng = len(gens)
    rows, rhs = [], []
    for h, val in zip(h_basis, phi_h):
        rows.append(list(h) + [-c for c in h] + [0] * ng)
        rhs.append(val)
    for i, g in enumerate(gens):
        row = list(g) + [-c for c in g] + [0] * ng
        row[2 * n + i] = -1
        rows.append(row)
        rhs.append(0)
    cost_core = [0] * (2 * n)
    for g in gens:
        for i in range(n):
            cost_core[i] += g[i]
            cost_core[n + i] -= g[i]
    cost = cost_core + [0] * ng
    res = linprog.solve_lp(rows, rhs, cost)
    if res.status != linprog.OPTIMAL:
        raise ValueError("no nonnegative extension exists; precondition violated")
    return tuple(res.x[i] - res.x[n + i] for i in range(n))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def cone_to_json(C: ConeV) -> str:
    return json.dumps({
        "dim": C.dim,
        "generators": [[str(c) for c in g] for g in C.generators],
    })


def cone_from_json(text: str) -> ConeV:
    data = json.loads(text)
    dim = data["dim"]
    if type(dim) is not int or dim < 0:
        raise ValueError(f"dim must be an integer of at least 0, got {dim!r}")
    return ConeV(dim, data["generators"])
