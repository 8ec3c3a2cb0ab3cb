"""Seeded inputs, expected verdicts and oracles for the four workloads.

Every input is built here from the run's seed and written as the JSON
file the ``ncsos`` command reads; the program sees nothing else.  Each
job carries what the benchmark needs to judge the program's answer
without trusting it: the verdicts it may return and the data an
independent check needs (a character value, a nonnegative combination,
a regular-representation matrix).

The seed changes coefficients, generating sets and element labels, but
never the structure of a round (backend, radius, mode, group order,
cone dimension and generator count), so runs with different seeds do
the same kinds of work in the same proportions.
"""

import functools
import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Pythagorean triples give complex rationals with rational modulus.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
           (1, 0, 1), (0, 1, 1))

WHY = {
    "sos-certify": (
        "targets known to lie in the cone; exact projection (gram_inner, "
        "solve_linear) and the rounding ladder dominate, two boundary "
        "targets move decided_frac"),
    "sos-refute": (
        "targets outside the cone; Gram assembly and the SDP dominate, dual "
        "witnesses reuse the assembly on verify, rounding never runs"),
    "kazhdan-finite": (
        "finite-group spectral gaps; only char_poly and the Sturm search "
        "run, the bypass workload for every sos change"),
    "separate-cones": (
        "exact cone separation; LP pivots and jet evaluation dominate, "
        "inside points use the membership LP alone"),
}

# Kept out of the workloads because one job takes longer than a run;
# times are single jobs measured on a 2-core Intel Xeon, Python 3.11.
EXCLUDED = {
    "free(2) certification at radius 2": "66-77 s, 73 s in gram_inner",
    "free(2) Gram assembly at radius 3": "109 s",
    "Delta^2 on free(2) at radius 2": "171 s, ends undecided",
    "Delta on free_abelian(2), full mode, radius 2": "40 s, ends undecided",
    "kazhdan on A5 / S5": "62 s / 774 s",
}


@dataclass
class Job:
    """One ``ncsos`` invocation and what a correct answer looks like."""

    family: str
    kind: str                   # 'sos' | 'kazhdan' | 'separate'
    argv: list
    expect: tuple               # acceptable verdicts
    inputs: dict = field(default_factory=dict)   # file -> sha256, point
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# small exact algebra, independent of the program
# ---------------------------------------------------------------------------

def _q(x):
    return str(Fraction(x))


def _cplx(rng):
    """Random complex rational z with rational |z| (returns z, |z|)."""
    p, q, r = rng.choice(TRIPLES)
    s = Fraction(rng.randint(1, 6), rng.randint(2, 6))
    re = Fraction(rng.choice((1, -1)) * p, r) * s
    im = Fraction(rng.choice((1, -1)) * q, r) * s
    return (re, im), s


def _add(terms, w, z):
    re, im = terms.get(w, (Fraction(0), Fraction(0)))
    re, im = re + z[0], im + z[1]
    if re or im:
        terms[w] = (re, im)
    else:
        terms.pop(w, None)


def _conj(z):
    return (z[0], -z[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _element(spec: dict, terms: dict, render) -> str:
    body = dict(spec)
    body["terms"] = [{"word": render(w), "re": _q(z[0]), "im": _q(z[1])}
                     for w, z in sorted(terms.items(),
                                        key=lambda t: str(t[0]))]
    return json.dumps(body)


def _power_word(k: int, lower="a", upper="A") -> str:
    return (lower if k > 0 else upper) * abs(k)


def _z2_word(w) -> str:
    return _power_word(w[0], "a", "A") + _power_word(w[1], "b", "B")


def _z2_ball(d):
    return [(i, j) for i in range(-d, d + 1) for j in range(-d, d + 1)
            if abs(i) + abs(j) <= d]


# ---------------------------------------------------------------------------
# sos-certify
# ---------------------------------------------------------------------------

def _z2_target(rng, mode):
    """Weighted c(g)* c(g) = w (2 - g - g^-1) over the radius-2 ball of Z^2
    (+ c in full mode).

    The Gram matrix diag(weights) (+ c/n I) is positive definite, so the
    target lies inside the cone, not on its boundary.
    """
    e, terms = (0, 0), {}
    pool = [g for g in _z2_ball(2) if g != e]
    chosen = pool if mode == "augmentation" else \
        [g for g in pool if abs(g[0]) + abs(g[1]) == 1]
    for g in chosen:
        w = Fraction(rng.randint(1, 12), 4)
        _add(terms, e, (2 * w, 0))
        _add(terms, g, (-w, 0))
        _add(terms, (-g[0], -g[1]), (-w, 0))
    if mode == "full":
        _add(terms, e, (Fraction(rng.randint(1, 8), 4), 0))
    return _element({"backend": "free_abelian", "rank": 2}, terms, _z2_word)


def _laurent_square(coeffs):
    """p* p for p = sum_k coeffs[k] g^k on free(1): word exponent -> coeff."""
    out = {}
    for i, ci in enumerate(coeffs):
        for j, cj in enumerate(coeffs):
            _add(out, j - i, _mul(_conj(ci), cj))
    return out


def _pp_shift_target(rng):
    """p* p + shift on free(1), p of degree 2 (criterion-12 style).

    Every coefficient of p is +-1/2 or +-1 and the shift has denominator
    3, so p never loses a term and the rationals are the same size for
    every seed: with zero coefficients and mixed denominators the ncsos
    verify time of these jobs, where verify_s_p50 falls, varied 4x.
    """
    coeffs = [tuple(Fraction(rng.choice((1, -1)) * rng.randint(1, 2), 2)
                    for _ in range(2)) for _ in range(3)]
    terms = _laurent_square(coeffs)
    _add(terms, 0, (Fraction(rng.randint(1, 4), 3), Fraction(0)))
    return _element({"backend": "free", "rank": 1}, terms, _power_word)


def _cyclic_ideal_target(rng, m):
    """Delta + c*b on Z/m in the augmentation ideal (criterion-9 style).

    b = -2 Re(z) + z g^k + conj(z) g^-k with z = (+-3 +- 4i)/5 or
    (+-4 +- 3i)/5, so l1(b) <= 4.  Delta's gap on the nontrivial
    characters is 2 - 2 cos(2 pi / m) and c * l1(b) <= gap / 5, so every
    nontrivial character stays above 0.8 * gap: far enough inside the cone
    that the first rounding rung succeeds.  c = 1/N with N fixed per order
    keeps the coefficient denominators, and so the exact arithmetic, the
    same size for every seed.
    """
    k = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
    p, q = rng.choice(((3, 4), (4, 3)))
    z = (Fraction(rng.choice((1, -1)) * p, 5),
         Fraction(rng.choice((1, -1)) * q, 5))
    gap = 2 - 2 * math.cos(2 * math.pi / m)
    c = Fraction(1, math.ceil(20 / gap))
    terms = {}
    _add(terms, 0, (2 - 2 * z[0] * c, Fraction(0)))
    _add(terms, k, (-1 + z[0] * c, z[1] * c))
    _add(terms, m - k, (-1 + z[0] * c, -z[1] * c))
    return _element({"backend": "finite", "mult_table": _cyclic_table(m)},
                    terms, str)


def _cyclic_table(m):
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def _star_word(w) -> str:
    return "".join(w)


def _star_square(p):
    """p* p on the hermitian free *-algebra (letters are self-adjoint)."""
    out = {}
    for u, cu in p.items():
        for v, cv in p.items():
            _add(out, u[::-1] + v, _mul(_conj(cu), cv))
    return out


def _hermitian_star_target(rng):
    """p1* p1 + p2* p2 + c (1 + a a + b b) on free_star(2, hermitian),
    p_i of degree 1.

    The c-term contributes c*I to the Gram matrix on {1, a, b}, so the
    target is interior.
    """
    words = ["", "a", "b"]
    terms = {}
    for _ in range(2):
        p = {w: (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                 Fraction(rng.randint(-1, 1), rng.randint(1, 3)))
             for w in words}
        p = {w: z for w, z in p.items() if z[0] or z[1]}
        for w, z in _star_square(p).items():
            _add(terms, w, z)
    c = Fraction(rng.randint(1, 6), rng.randint(2, 6))
    for w in words:
        _add(terms, w + w, (c, Fraction(0)))
    return _element({"backend": "free_star", "rank": 2, "hermitian": True},
                    terms, _star_word)


def _shift_target(rng):
    """z g + conj(z) g^-1 on free(1) with a shift eta > 2|z|."""
    z, mod = _cplx(rng)
    terms = {1: z, -1: _conj(z)}
    eta = 2 * mod + Fraction(rng.randint(1, 4), 4)
    return _element({"backend": "free", "rank": 1}, terms, _power_word), eta


def _boundary_target(rng, power):
    """c * Delta^power on free(1): zero at the trivial character."""
    c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    delta = {0: (Fraction(2), Fraction(0)), 1: (Fraction(-1), Fraction(0)),
             -1: (Fraction(-1), Fraction(0))}
    terms = dict(delta)
    for _ in range(power - 1):
        prod = {}
        for u, cu in terms.items():
            for v, cv in delta.items():
                _add(prod, u + v, _mul(cu, cv))
        terms = prod
    terms = {w: (z[0] * c, z[1] * c) for w, z in terms.items()}
    return _element({"backend": "free", "rank": 1}, terms, _power_word)


def _sos_job(family, text, extra, expect):
    return Job(family=family, kind="sos", argv=["sos", text] + extra,
               expect=expect)


def sos_certify_round(rng):
    """37 jobs: two heavy Z^2 projections; twenty p*p + shift on free(1),
    where the medians of job and verify times fall; cyclic ideal targets
    of order 3-8 and four of order 12, among which the tail falls together
    with the boundary target at radius 3, which costs about as much as one
    of them; one shift job; three free_star targets; and two boundary
    targets."""
    jobs = [
        _sos_job("z2-full", _z2_target(rng, "full"), ["--radius", "2"],
                 ("certified",)),
        _sos_job("z2-aug", _z2_target(rng, "augmentation"),
                 ["--radius", "2", "--mode", "augmentation"], ("certified",)),
    ]
    for _ in range(20):
        jobs.append(_sos_job("free1-pp-shift", _pp_shift_target(rng),
                             ["--radius", "2"], ("certified",)))
    for m in (3, 4, 5, 6, 8, 12, 12, 12, 12):
        jobs.append(_sos_job(f"cyclic{m}-ideal", _cyclic_ideal_target(rng, m),
                             ["--mode", "augmentation"], ("certified",)))
    text, eta = _shift_target(rng)
    jobs.append(_sos_job("free1-shift", text, ["--shift", str(eta)],
                         ("certified",)))
    for _ in range(3):
        jobs.append(_sos_job("star-hermitian", _hermitian_star_target(rng),
                             [], ("certified",)))
    jobs.append(_sos_job("free1-delta2-r2", _boundary_target(rng, 2),
                         ["--radius", "2"], ("certified", "undecided")))
    jobs.append(_sos_job("free1-delta-r3", _boundary_target(rng, 1),
                         ["--radius", "3"], ("certified", "undecided")))
    return jobs


def sos_certify_warmup(rng):
    return _sos_job("free1-pp-shift", _pp_shift_target(rng),
                    ["--radius", "2"], ("certified",))


# ---------------------------------------------------------------------------
# sos-refute
# ---------------------------------------------------------------------------

def _free_refute_target(rng, rank):
    """c0 + sum_s (z_s s + conj(z_s) s^-1) with c0 < 2 sum |z_s|.

    The one-dimensional representation s -> -conj(z_s)/|z_s| gives the
    value c0 - 2 sum |z_s| < 0, so the target is outside the cone.
    """
    terms, total = {}, Fraction(0)
    letters = "ab"[:rank]
    for letter in letters:
        z, mod = _cplx(rng)
        terms[letter] = z
        terms[letter.upper()] = _conj(z)
        total += 2 * mod
    terms[""] = (total * Fraction(rng.randint(1, 3), 4), Fraction(0))
    return _element({"backend": "free", "rank": rank}, terms, str)


def _cyclic_refute_target(rng, m):
    """c0 + z g^k + conj(z) g^-k on Z/m with c0 below the largest
    -2 Re(z w) over m-th roots of unity w: negative at that character."""
    k = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
    z, _ = _cplx(rng)
    lows = [2 * (float(z[0]) * math.cos(2 * math.pi * j * k / m)
                 - float(z[1]) * math.sin(2 * math.pi * j * k / m))
            for j in range(m)]
    c0 = Fraction(-min(lows) * rng.randint(1, 3) / 4).limit_denominator(64)
    terms = {0: (c0, Fraction(0)), k: z, m - k: _conj(z)}
    return _element({"backend": "finite", "mult_table": _cyclic_table(m)},
                    terms, str)


def sos_refute_round(rng):
    """11 jobs: seven free(2) refutations at radius 2 (unitary witnesses,
    most of the jobs and of the verifies, so the medians and the tail are
    among them) and cyclic refutations of order 6-12 (dual
    functionals)."""
    jobs = [_sos_job("free2-deg1", _free_refute_target(rng, 2),
                     ["--radius", "2"], ("refuted",)) for _ in range(7)]
    return jobs + [_sos_job(f"cyclic{m}", _cyclic_refute_target(rng, m),
                            ["--radius", "1"], ("refuted",))
                   for m in (6, 8, 10, 12)]


def sos_refute_warmup(rng):
    return _sos_job("free1-deg1", _free_refute_target(rng, 1),
                    ["--radius", "2"], ("refuted",))


# ---------------------------------------------------------------------------
# kazhdan-finite
# ---------------------------------------------------------------------------

def _compose(p, q):
    """(p q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _closure(gens, n):
    e = tuple(range(n))
    elems, seen, i = [e], {e}, 0
    while i < len(elems):
        for g in gens:
            h = _compose(g, elems[i])
            if h not in seen:
                seen.add(h)
                elems.append(h)
        i += 1
    return elems


def _group_table(rng, elems):
    """Multiplication table with the identity at 0 and shuffled labels."""
    rest = list(range(1, len(elems)))
    rng.shuffle(rest)
    order = [elems[0]] + [elems[i] for i in rest]
    index = {p: i for i, p in enumerate(order)}
    table = [[index[_compose(a, b)] for b in order] for a in order]
    return table, index


def _rotation(n, k):
    return tuple((i + k) % n for i in range(n))


def _reflection(n, j):
    return tuple((j - i) % n for i in range(n))


def _kazhdan_job(family, table, gens_idx):
    sym = sorted(set(gens_idx))
    text = json.dumps({"backend": "finite", "mult_table": table})
    return Job(family=family, kind="kazhdan",
               argv=["kazhdan", text, "--gens", ",".join(map(str, sym))],
               expect=("gap",) if _generates(table, sym) else
               ("not-generating",),
               oracle={"table": table, "gens": sym})


def _generates(table, gens):
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for s in gens:
            y = table[x][s]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(table)


def _cyclic_kazhdan(rng, m, steps):
    base = _rotation(m, 1)
    table, index = _group_table(rng, _closure([base], m))
    k = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
    gens = []
    for s in steps:
        gens += [index[_rotation(m, s * k)], index[_rotation(m, -s * k)]]
    return _kazhdan_job(f"cyclic{m}-{len(gens)}gens", table, gens)


def _dihedral_kazhdan(rng, n):
    table, index = _group_table(
        rng, _closure([_rotation(n, 1), _reflection(n, 0)], n))
    k = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    gens = [index[_rotation(n, k)], index[_rotation(n, -k)],
            index[_reflection(n, rng.randrange(n))]]
    return _kazhdan_job(f"dihedral{2 * n}", table, gens)


def _s4_kazhdan(rng, which):
    e = (0, 1, 2, 3)
    pi = list(e)
    rng.shuffle(pi)
    pi = tuple(pi)

    def conj(p):
        return _compose(_compose(pi, p), _inverse(pi))

    table, index = _group_table(rng, _closure([(1, 0, 2, 3), (1, 2, 3, 0)],
                                              4))
    if which == "transposition-4cycle":
        c = conj((1, 2, 3, 0))
        gens = [conj((1, 0, 2, 3)), c, _inverse(c)]
    elif which == "transposition-3cycle":
        c = conj((0, 2, 3, 1))
        gens = [conj((1, 0, 2, 3)), c, _inverse(c)]
    elif which == "adjacent-transpositions":
        gens = [conj((1, 0, 2, 3)), conj((0, 2, 1, 3)), conj((0, 1, 3, 2))]
    else:                               # generates a Klein subgroup only
        gens = [conj((1, 0, 2, 3)), conj((0, 1, 3, 2))]
    return _kazhdan_job(f"s4-{which}", table, [index[g] for g in gens])


def kazhdan_round(rng):
    """14 jobs of order 6-24 with rational and irrational gaps and one set
    that does not generate: five small groups, Z/12 with four generators
    (Sturm bisection on a degree-11 polynomial), and eight groups of order
    24.  The order-24 jobs are the majority, so the median and the tail
    both fall among them, where per-job times are steadiest."""
    return [
        _cyclic_kazhdan(rng, 6, (1,)),
        _dihedral_kazhdan(rng, 3),
        _cyclic_kazhdan(rng, 8, (1,)),
        _cyclic_kazhdan(rng, 10, (1, 2)),
        _cyclic_kazhdan(rng, 16, (1,)),
        _cyclic_kazhdan(rng, 12, (1, 2)),
        _cyclic_kazhdan(rng, 24, (1,)),
        _dihedral_kazhdan(rng, 12),
        _dihedral_kazhdan(rng, 12),
        _s4_kazhdan(rng, "transposition-4cycle"),
        _s4_kazhdan(rng, "transposition-4cycle"),
        _s4_kazhdan(rng, "transposition-3cycle"),
        _s4_kazhdan(rng, "adjacent-transpositions"),
        _s4_kazhdan(rng, "non-generating"),
    ]


def kazhdan_warmup(rng):
    return _cyclic_kazhdan(rng, 6, (1,))


def regular_gap(table, gens) -> float:
    """Second-smallest eigenvalue of Delta(S) on l2(G), in floating point."""
    m = len(table)
    M = np.zeros((m, m))
    for v in range(m):
        M[v, v] += len(gens)
        for s in gens:
            M[table[s][v], v] -= 1.0
    return float(np.linalg.eigvalsh((M + M.T) / 2)[1])


# ---------------------------------------------------------------------------
# separate-cones
# ---------------------------------------------------------------------------

def in_cone(gens, x) -> bool:
    """Exact: is x a nonnegative combination of the generators?

    By Caratheodory a member of the cone is a nonnegative combination of
    linearly independent generators; floating point proposes each
    independent subset's coefficients and Fractions confirm them.
    """
    if not any(x):
        return True
    G = np.array(gens, dtype=float).T
    xf = np.array(x, dtype=float)
    for r in range(1, min(len(x), len(gens)) + 1):
        for subset in itertools.combinations(range(len(gens)), r):
            A = G[:, subset]
            if np.linalg.matrix_rank(A) < r:
                continue
            lam, *_ = np.linalg.lstsq(A, xf, rcond=None)
            if np.abs(A @ lam - xf).max() > 1e-9 or lam.min() < -1e-9:
                continue
            exact = _exact_combination([gens[j] for j in subset], x)
            if exact is not None and min(exact) >= 0:
                return True
    return False


def _exact_combination(cols, x):
    """Unique solution of sum_j lambda_j cols[j] = x over Q, or None."""
    r, dim = len(cols), len(x)
    rows = [[Fraction(cols[j][i]) for j in range(r)] + [Fraction(x[i])]
            for i in range(dim)]
    piv_row = 0
    for c in range(r):
        p = next((i for i in range(piv_row, dim) if rows[i][c]), None)
        if p is None:
            return None
        rows[piv_row], rows[p] = rows[p], rows[piv_row]
        pv = rows[piv_row][c]
        rows[piv_row] = [v / pv for v in rows[piv_row]]
        for i in range(dim):
            if i != piv_row and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv_row])]
        piv_row += 1
    if any(rows[i][r] for i in range(r, dim)):
        return None
    return [rows[i][r] for i in range(r)]


def lex_sign(stages, v) -> int:
    """Sign of a staged functional: the first nonzero stage decides."""
    for stage in stages:
        s = sum(Fraction(a) * b for a, b in zip(stage, v))
        if s:
            return 1 if s > 0 else -1
    return 0


def _random_generators(rng, dim, k):
    gens = []
    while len(gens) < k:
        g = [rng.randint(-3, 3) for _ in range(dim)]
        if any(g):
            gens.append(g)
    return gens


def _cone_job(family, gens, x, inside):
    text = json.dumps({"dim": len(x), "generators": [[str(v) for v in g]
                                                     for g in gens]})
    return Job(family=family, kind="separate",
               argv=["separate", text, "--point=" + ",".join(map(str, x))],
               expect=("inside",) if inside else ("separated",),
               oracle={"generators": gens, "point": x})


def _outside_job(rng, dim, k):
    """Criterion-4 draw at fixed (dim, k), redrawn until x is outside."""
    while True:
        gens = _random_generators(rng, dim, k)
        for _ in range(20):
            x = [rng.randint(-4, 4) for _ in range(dim)]
            if not in_cone(gens, x):
                return _cone_job(f"dim{dim}", gens, x, False)


def _inside_job(rng, dim):
    """A nonnegative integer combination of 2*dim criterion-4 generators."""
    gens = _random_generators(rng, dim, 2 * dim)
    lam = [0] * len(gens)
    while not any(lam):
        lam = [rng.randint(0, 2) for _ in gens]
    x = [sum(l * g[i] for l, g in zip(lam, gens)) for i in range(dim)]
    return _cone_job(f"dim{dim}-inside", gens, x, True)


def _signed_permutation(rng, job):
    """The same cone and point in other coordinates: permute and flip the
    coordinates.  The generators keep their order."""
    gens, x = job.oracle["generators"], job.oracle["point"]
    dim = len(x)
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]

    def move(v):
        return [signs[i] * v[perm[i]] for i in range(dim)]

    moved = [move(g) for g in gens]
    return _cone_job(job.family, moved, move(x), job.expect == ("inside",))


def separate_round(rng):
    """359 jobs: a point outside the cone for every (dim, k) the
    criterion-4 generator can draw (dim 1-6, k = 1..2*dim), the six
    heaviest strata (dim 6, k > 6) in two more presentations so that the
    tail falls inside them, one point inside per dimension 1-5, and 300
    points inside dimension-6 cones (25 cones in twelve presentations),
    the membership-LP-only path, so that the medians fall among them.  A
    presentation moves a membership LP's time by up to 20%, so the
    medians average many of them.

    The cones are one fixed criterion-4 draw; the seed moves each into
    other coordinates.  Fresh draws per seed changed a run's LP work by up
    to 2x (exact LP cost is heavy-tailed in the instance), more than any
    bound could hold, while the moved copies keep every seed at the same
    geometry and the same inside/outside mix.  The heavy strata keep
    three fixed presentations for every seed: Bland's rule makes the
    simplex's pivot path follow the order and signs of rows and columns,
    and one heavy cone took from 1.0 to 2.2 s across presentations, so
    moving them per seed moved the tail and the throughput with the seed.
    """
    return [_copy(job) if job.family == "dim6-heavy" else
            _signed_permutation(rng, job) for job in _separate_base()
            for _ in range(12 if job.family == "dim6-inside" else 1)]


def _copy(job):
    return Job(family=job.family, kind=job.kind, argv=list(job.argv),
               expect=job.expect, oracle=dict(job.oracle))


@functools.lru_cache(maxsize=1)
def _separate_base():
    base = random.Random("separate-cones-base")
    jobs = [_outside_job(base, dim, k)
            for dim in range(1, 7) for k in range(1, 2 * dim + 1)]
    heavy = []
    for job in jobs[-6:]:               # dim 6, k = 7..12
        job.family = "dim6-heavy"
        heavy += [job, _signed_permutation(base, job),
                  _signed_permutation(base, job)]
    jobs = jobs[:-6] + heavy
    jobs += [_inside_job(base, dim) for dim in range(1, 6)]
    return tuple(jobs + [_inside_job(base, 6) for _ in range(25)])


def separate_warmup(rng):
    return _outside_job(rng, 3, 3)


# ---------------------------------------------------------------------------
# registry and materialization
# ---------------------------------------------------------------------------

# round function, warm-up function, nominal seconds of one untraced round on
# a 2-core Intel Xeon (sets how many rounds a run of --seconds holds)
WORKLOADS = {
    "sos-certify": (sos_certify_round, sos_certify_warmup, 10.0),
    "sos-refute": (sos_refute_round, sos_refute_warmup, 10.0),
    "kazhdan-finite": (kazhdan_round, kazhdan_warmup, 10.0),
    "separate-cones": (separate_round, separate_warmup, 20.0),
}


def rounds_for(workload: str, seconds: float, traced: bool) -> int:
    """Whole rounds a run measures: fixed by --seconds, not by the clock,
    so two commits always time the same jobs.  A traced run times its
    rounds twice (untraced, then traced), so it takes half as many."""
    rounds = max(1, round(seconds / WORKLOADS[workload][2]))
    return max(1, rounds // 2) if traced else rounds


def build(workload: str, seed: int, rounds: int):
    """Warm-up job and the timed rounds, all drawn from one seeded stream.

    Each round runs in a seeded order that spreads every family over it,
    so the jobs a median or a tail falls among meet the host at different
    times, not in one block.
    """
    round_fn, warm_fn, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    warm = warm_fn(rng)
    out = []
    for _ in range(rounds):
        jobs = round_fn(rng)
        rng.shuffle(jobs)
        out.append(jobs)
    return warm, out


def materialize(jobs, workdir: str):
    """Write each job's input file and replace the text by its path."""
    os.makedirs(workdir, exist_ok=True)
    for n, job in enumerate(jobs):
        text = job.argv[1]
        name = f"{n:03d}-{job.family}.json"
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        job.argv[1] = path
        job.inputs = {name: hashlib.sha256(text.encode()).hexdigest()}
        if job.kind == "separate":
            job.inputs[name + "#point"] = job.argv[2].split("=", 1)[1]
