from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncsos import cones, linprog
from ncsos.cones import (
    ConeV,
    LexFunctional,
    PointInsideCone,
    cone_from_json,
    cone_to_json,
    evaluate_lex,
    extend_functional,
    lineality,
    membership,
    separate_point,
)
from ncsos.rcf import RcfScalar

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "cone_answers.json"


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

def test_lp_basic_optimum():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x2 + t = 3, all >= 0
    A = [[F(1), F(1), F(1), F(0)], [F(0), F(1), F(0), F(1)]]
    b = [F(4), F(3)]
    c = [F(-1), F(-2), F(0), F(0)]
    res = linprog.solve_lp(A, b, c)
    assert res.status == linprog.OPTIMAL
    assert res.obj == F(-7)
    assert res.x[0] == 1 and res.x[1] == 3


def test_lp_infeasible_gives_farkas():
    # x1 + x2 = -1 with x >= 0 is infeasible
    A = [[F(1), F(1)]]
    b = [F(-1)]
    res = linprog.solve_lp(A, b, [F(0), F(0)])
    assert res.status == linprog.INFEASIBLE
    y = res.y
    assert y[0] * A[0][0] <= 0 and y[0] * A[0][1] <= 0
    assert y[0] * b[0] > 0


def test_lp_unbounded():
    # min -x1 s.t. x1 - x2 = 0
    A = [[F(1), F(-1)]]
    b = [F(0)]
    res = linprog.solve_lp(A, b, [F(-1), F(0)])
    assert res.status == linprog.UNBOUNDED


def _rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 7))


def test_lp_random_vs_feasibility():
    rng = random.Random(424242)
    seen = set()
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        A = [[_rational(rng) for _ in range(n)] for _ in range(m)]
        feasible = rng.random() < 0.5
        if feasible:
            xfeas = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(A[i][j] * xfeas[j] for j in range(n)) for i in range(m)]
        else:
            b = [_rational(rng) for _ in range(m)]
        c = [_rational(rng) for _ in range(n)]
        res = linprog.solve_lp(A, b, c)
        seen.add(res.status)
        if res.status == linprog.UNBOUNDED:
            continue
        yA = [sum(res.y[i] * A[i][j] for i in range(m)) for j in range(n)]
        yb = sum(res.y[i] * b[i] for i in range(m))
        if res.status == linprog.OPTIMAL:
            for i in range(m):
                assert sum(A[i][j] * res.x[j] for j in range(n)) == b[i]
            assert all(v >= 0 for v in res.x)
            assert res.obj == sum(cj * xj for cj, xj in zip(c, res.x))
            assert res.obj == yb                      # strong duality
            assert all(cj - v >= 0 for cj, v in zip(c, yA))
        else:
            assert res.status == linprog.INFEASIBLE and not feasible
            assert all(v <= 0 for v in yA) and yb > 0     # Farkas
    assert seen == {linprog.OPTIMAL, linprog.INFEASIBLE, linprog.UNBOUNDED}


def _random_lp(rng):
    """Rational LP with denominators up to 7, negative rhs entries and, in
    about 30% of the rows, a combination of the rows above it (a redundant
    equation); half of them are feasible through a point x >= 0."""
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    rows = []
    for i in range(m):
        if i and rng.random() < 0.3:
            u, v = rng.choice(rows), rng.choice(rows)
            lu, lv = _rational(rng), _rational(rng)
            rows.append([lu * a + lv * b for a, b in zip(u, v)])
        else:
            rows.append([_rational(rng) if rng.random() < 0.7 else F(0)
                         for _ in range(n + 1)])
    if rng.random() < 0.5:
        x0 = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        for row in rows:
            row[n] = sum(a * xj for a, xj in zip(row, x0))
    return ([row[:n] for row in rows], [row[n] for row in rows],
            [_rational(rng) for _ in range(n)])


def _as_fractions(vs):
    """An LP's x or y with every entry a Fraction: an int entry and the
    equal Fraction then print alike."""
    return None if vs is None else [F(v) for v in vs]


def test_lp_results_match_recorded_digest():
    # 500 seeded LPs.  (status, obj) does not depend on the pivot path;
    # (status, x, obj, y) pins it, so any change of a pivot choice changes
    # x or y on some of them
    rng = random.Random(20261018)
    values, path = hashlib.sha256(), hashlib.sha256()
    counts = {}
    for _ in range(500):
        res = linprog.solve_lp(*_random_lp(rng))
        counts[res.status] = counts.get(res.status, 0) + 1
        values.update(repr((res.status, res.obj)).encode())
        path.update(repr((res.status, _as_fractions(res.x), res.obj,
                          _as_fractions(res.y))).encode())
    assert counts == {linprog.OPTIMAL: 205, linprog.INFEASIBLE: 110,
                      linprog.UNBOUNDED: 185}
    assert values.hexdigest() == ("0cf2970273df455bf92c4a1f6c336205"
                                  "2422d9991fff81809a5e3fdfda0a45e5")
    assert path.hexdigest() == ("3674201a7aed835d3c09acc8bc950796"
                                "0e23d9e632ad3b8c5edb19e30c79b812")


@pytest.fixture
def pivots(monkeypatch):
    """Per solve_lp call, the (row, column) pivots made by the slack crash,
    by phase 1, and after phase 1."""
    log = []
    solve, run, pivot = linprog.solve_lp, linprog._run_simplex, linprog._pivot
    phase = [0]

    def solve_lp(*args):
        log.append(([], [], []))
        phase[0] = 0
        return solve(*args)

    def run_simplex(*args):
        phase[0] = 1 if phase[0] == 0 else 2
        try:
            return run(*args)
        finally:
            phase[0] = 2

    def counted_pivot(M, D, basis, r, e):
        log[-1][phase[0]].append((r, e))
        return pivot(M, D, basis, r, e)

    monkeypatch.setattr(linprog, "solve_lp", solve_lp)
    monkeypatch.setattr(linprog, "_run_simplex", run_simplex)
    monkeypatch.setattr(linprog, "_pivot", counted_pivot)
    return log


def _assert_optimal(A, b, c, res, x, obj):
    """res is the optimum x (computed by hand) with a dual that proves it."""
    assert res.status == linprog.OPTIMAL
    assert res.x == [F(v) for v in x] and res.obj == obj
    y = res.y
    assert sum(yi * bi for yi, bi in zip(y, b)) == obj      # strong duality
    assert all(cj - sum(yi * row[j] for yi, row in zip(y, A)) >= 0
               for j, cj in enumerate(c))                    # dual feasible


def _assert_farkas(A, b, res):
    assert res.status == linprog.INFEASIBLE
    y = res.y
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0
    assert all(sum(yi * row[j] for yi, row in zip(y, A)) <= 0
               for j in range(len(A[0])))


def test_crash_unit_column_with_coefficient_three(pivots):
    # x1/2 + 3 s = 3, 2 x1 + t = 4; max x1 is 2 with s = 2/3
    A = [[F(1, 2), F(3), F(0)], [F(2), F(0), F(1)]]
    b, c = [F(3), F(4)], [F(-1), F(0), F(0)]
    _assert_optimal(A, b, c, linprog.solve_lp(A, b, c), [2, F(2, 3), 0], -2)
    crash, phase1, _ = pivots[0]
    assert crash == [(0, 1), (1, 2)] and phase1 == []


def test_crash_negates_a_zero_rhs_row(pivots):
    # x1 - x2 - s = 0 (x2 <= x1), x1 + x2 + t = 2; max x2 is 1
    A = [[F(1), F(-1), F(-1), F(0)], [F(1), F(1), F(0), F(1)]]
    b, c = [F(0), F(2)], [F(0), F(-1), F(0), F(0)]
    _assert_optimal(A, b, c, linprog.solve_lp(A, b, c), [1, 1, 0, 0], -1)
    crash, phase1, _ = pivots[0]
    assert crash == [(0, 2), (1, 3)] and phase1 == []


@pytest.mark.parametrize("sign", [1, -1])
def test_crash_skips_a_surplus_on_a_positive_rhs(pivots, sign):
    # x1 + x2 - s = 1 (also written negated), x1 + 2 x2 + t = 4: s would
    # enter at level -1, so row 0 keeps its artificial for phase 1
    A = [[F(sign), F(sign), F(-sign), F(0)], [F(1), F(2), F(0), F(1)]]
    b, c = [F(sign), F(4)], [F(1), F(2), F(0), F(0)]
    _assert_optimal(A, b, c, linprog.solve_lp(A, b, c), [1, 0, 0, 3], 1)
    crash, phase1, _ = pivots[0]
    assert crash == [(1, 3)] and phase1 != []


def test_crash_takes_the_least_unit_column_of_a_row(pivots):
    # columns 1 and 3 are both unit columns of row 0; column 1 enters
    A = [[F(1), F(1), F(0), F(2)], [F(1), F(0), F(1), F(0)]]
    b, c = [F(2), F(3)], [F(-1), F(0), F(0), F(-3)]
    _assert_optimal(A, b, c, linprog.solve_lp(A, b, c), [0, 0, 3, 1], -3)
    crash, phase1, _ = pivots[0]
    assert crash == [(0, 1), (1, 2)]


def test_crash_with_a_redundant_row(pivots):
    # row 0 crashes; rows 1 and 2 say x1 + x2 = 1 twice
    A = [[F(1), F(1), F(1)], [F(1), F(1), F(0)], [F(2), F(2), F(0)]]
    b, c = [F(3), F(1), F(2)], [F(1), F(2), F(0)]
    _assert_optimal(A, b, c, linprog.solve_lp(A, b, c), [1, 0, 2], 1)
    assert pivots[0][0] == [(0, 2)]


def test_crash_infeasible_with_every_slack_row_crashed(pivots):
    # x2 <= x1 <= 1 and x2 = 2.  Every row with a slack crashes (a system
    # whose rows all crash is feasible at its crash basis), and the Farkas
    # certificate must weigh the crashed rows
    A = [[F(1), F(-1), F(-1), F(0)], [F(0), F(1), F(0), F(0)],
         [F(1), F(0), F(0), F(1)]]
    b = [F(0), F(2), F(1)]
    res = linprog.solve_lp(A, b, [F(0)] * 4)
    _assert_farkas(A, b, res)
    assert res.y[0] and res.y[2]
    assert pivots[0][0] == [(0, 2), (2, 3)]


def test_stage_lps_make_no_phase_one_pivots(pivots):
    # every row of a stage LP has a zero rhs or a slack at level one, so
    # the slack crash leaves phase 1 nothing to do, on the full space and
    # on the kernel of a previous stage
    gens = [(F(1), F(0), F(2)), (F(-1), F(1), F(0)), (F(0), F(-1), F(1))]
    h_basis = cones._identity(3)
    phi, _ = cones._stage_lp(h_basis, gens)
    cones._stage_lp(cones._restrict(h_basis, phi), gens)
    cones._stage_lp([(1, 1, 0)], gens[:1])
    assert len(pivots) == 3
    for crash, phase1, _ in pivots:
        assert crash and phase1 == []


# ---------------------------------------------------------------------------
# membership / lineality
# ---------------------------------------------------------------------------

def test_membership_inside():
    C = ConeV(2, [(1, 0), (0, 1)])
    res = membership(C, (2, 3))
    assert res.inside
    assert res.coefficients == [F(2), F(3)]


def test_membership_outside_certificate():
    C = ConeV(2, [(1, 0), (0, 1)])
    res = membership(C, (-1, 5))
    assert not res.inside
    y = res.certificate
    assert all(sum(a * b for a, b in zip(y, g)) <= 0 for g in C.generators)
    assert y[0] * -1 + y[1] * 5 > 0


def test_membership_rejects_a_bad_farkas_certificate_under_O(tmp_path):
    # the LP claims infeasibility for a point inside the cone, with a y
    # that is negative at the point; the Farkas check must still run
    script = (
        "from fractions import Fraction\n"
        "from ncsos import cones, linprog\n"
        "linprog.solve_lp = lambda A, b, c: linprog.LpResult(\n"
        "    linprog.INFEASIBLE, y=[Fraction(-1), Fraction(0)])\n"
        "try:\n"
        "    cones.membership(cones.ConeV(2, [(1, 0), (0, 1)]), (1, 1))\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_lineality_halfplane():
    C = ConeV(2, [(1, 0), (-1, 0), (0, 1)])
    basis = lineality(C)
    assert len(basis) == 1
    v = basis[0]
    assert v[1] == 0 and v[0] != 0


def test_lineality_trivial():
    assert lineality(ConeV(2, [(1, 1)])) == []
    assert len(lineality(ConeV(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))) == 2


# ---------------------------------------------------------------------------
# separation: the contract is the oracle
# ---------------------------------------------------------------------------

def _check_separation_contract(C: ConeV, x, f: LexFunctional):
    lin = lineality(C)

    def in_lin(g):
        if not lin:
            return not any(g)
        from ncsos.exactla import solve_linear
        A = [[lin[j][i] for j in range(len(lin))] for i in range(C.dim)]
        return solve_linear(A, list(g)) is not None

    vx = evaluate_lex(f, x)
    assert vx < 0, "phi(x) must be lexicographically negative"
    for g in C.generators:
        vg = evaluate_lex(f, g)
        assert vg >= 0
        if in_lin(g):
            assert vg == 0
        else:
            assert vg > 0
    for v in lin:
        assert evaluate_lex(f, v) == 0
    assert len(f.stages) <= C.dim


def test_separate_axes_cone():
    C = ConeV(2, [(1, 0), (0, 1)])
    x = (-1, 0)
    f = separate_point(C, x)
    _check_separation_contract(C, x, f)
    # deterministic
    g = separate_point(C, x)
    assert f.stages == g.stages


def test_separate_needs_two_stages():
    # half-plane cone: x-axis is lineality, x below needs the stacked stage
    C = ConeV(2, [(1, 0), (-1, 0), (0, 1)])
    x = (0, -1)
    f = separate_point(C, x)
    _check_separation_contract(C, x, f)
    # the x-axis is killed by every stage
    assert evaluate_lex(f, (1, 0)) == 0
    assert evaluate_lex(f, (-1, 0)) == 0


def test_separate_dim1():
    C = ConeV(1, [(1,)])
    f = separate_point(C, (-1,))
    _check_separation_contract(C, (-1,), f)


def test_separate_rejects_members():
    C = ConeV(2, [(1, 0), (0, 1)])
    with pytest.raises(PointInsideCone) as ei:
        separate_point(C, (2, 1))
    assert ei.value.coefficients == [F(2), F(1)]
    with pytest.raises(PointInsideCone):
        separate_point(C, (0, 0))


def test_separate_point_on_lineality_boundary():
    # x in span of generators but outside the cone
    C = ConeV(3, [(1, 0, 0), (0, 1, 0)])
    x = (-1, -1, 0)
    f = separate_point(C, x)
    _check_separation_contract(C, x, f)


def test_separate_point_solves_one_lp_per_cover_stage(monkeypatch):
    # one membership LP, whose certificate is stage 1, then one LP per
    # cover stage, plus one when the last cover LP scores nothing
    results = []
    solve = linprog.solve_lp

    def recorded(A, b, c):
        results.append(solve(A, b, c))
        return results[-1]

    monkeypatch.setattr(linprog, "solve_lp", recorded)
    cases = [(ConeV(1, [(1,)]), (-1,), 1),          # stage 1 scores all
             (ConeV(2, [(1, 0), (0, 1)]), (-1, 0), 2),
             (ConeV(2, [(1, 0), (-1, 0), (0, 1)]), (0, -1), 2)]
    rng = random.Random(777)
    for _ in range(40):
        C, x = _random_cone_and_point(rng, rng.randint(1, 4))
        if not membership(C, x).inside:
            cases.append((C, x, None))
    for C, x, expected in cases:
        results.clear()
        f = separate_point(C, x)
        membership_lp, *stage_lps = results
        assert membership_lp.status == linprog.INFEASIBLE
        assert f.stages[0] == tuple(-c for c in membership_lp.y)
        assert all(r.status == linprog.OPTIMAL for r in stage_lps)
        scored = [r for r in stage_lps if r.obj < 0]
        assert scored == stage_lps[:len(f.stages) - 1]
        assert len(stage_lps) - len(scored) <= 1
        if expected is not None:
            assert len(results) == expected


def _pointed_cone(dim, k):
    """k random integer generators with first coordinate in [1, 5], so the
    cone is pointed, and the point -e_0 outside it."""
    rng = random.Random(f"{dim}-{k}")
    gens = [(rng.randint(1, 5),) + tuple(rng.randint(-5, 5)
                                         for _ in range(dim - 1))
            for _ in range(k)]
    return ConeV(dim, gens), (-1,) + (0,) * (dim - 1)


def test_separate_pointed_dim16_cone_in_seconds():
    # about 20 s when separation rebuilt stage 1 with a cover LP that
    # carried the point; the lineality is zero, so the contract is strict
    C, x = _pointed_cone(16, 160)
    start = time.perf_counter()
    f = separate_point(C, x)
    elapsed = time.perf_counter() - start
    assert evaluate_lex(f, x) < 0
    assert all(evaluate_lex(f, g) > 0 for g in C.generators)
    assert len(f.stages) <= C.dim
    assert elapsed < 5, f"separate took {elapsed:.1f} s"


def _random_cone_and_point(rng, dim):
    k = rng.randint(1, 2 * dim)
    gens = []
    while len(gens) < k:
        g = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        if any(g):
            gens.append(g)
    x = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
    return ConeV(dim, gens), x


def test_separation_randomized_against_membership():
    rng = random.Random(777)
    separated = 0
    for _ in range(60):
        dim = rng.randint(1, 4)
        C, x = _random_cone_and_point(rng, dim)
        res = membership(C, x)
        if res.inside:
            with pytest.raises(PointInsideCone):
                separate_point(C, x)
            continue
        f = separate_point(C, x)
        _check_separation_contract(C, x, f)
        separated += 1
    assert separated >= 20


def test_separation_scale_invariance():
    rng = random.Random(31337)
    for _ in range(20):
        dim = rng.randint(1, 3)
        C, x = _random_cone_and_point(rng, dim)
        if membership(C, x).inside:
            continue
        scale_x = F(rng.randint(1, 5), rng.randint(1, 5))
        factors = [F(rng.randint(1, 4)) for _ in C.generators]
        scaled_gens = [tuple(f * c for c in g)
                       for f, g in zip(factors, C.generators)]
        C2 = ConeV(dim, scaled_gens)
        x2 = tuple(scale_x * c for c in x)
        assert not membership(C2, x2).inside
        f2 = separate_point(C2, x2)
        _check_separation_contract(C2, x2, f2)


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                         ids=lambda case: case["name"])
def test_cone_answers_match_golden(case):
    # integer cones of dim 2-6 (one with a plane of lineality) and a cone
    # written with "1/2", "0.5", "1e2" and "-3/4"; a recorded functional
    # must itself separate before its bytes pin the answer
    C = ConeV(case["dim"], case["generators"])
    res = membership(C, case["point"])
    if "coefficients" in case:
        assert res.inside
        assert [str(c) for c in res.coefficients] == case["coefficients"]
    else:
        _check_separation_contract(
            C, case["point"], LexFunctional(case["dim"], case["stages"]))
        f = separate_point(C, case["point"])
        assert f.to_json() == json.dumps({"dim": case["dim"],
                                          "stages": case["stages"]})
    assert [[str(c) for c in v] for v in lineality(C)] == case["lineality"]


def _values(obj):
    """The scalars in a result: nested tuples, lists and stages."""
    if isinstance(obj, LexFunctional):
        return _values(obj.stages)
    if isinstance(obj, (tuple, list)):
        return [v for item in obj for v in _values(item)]
    return [obj]


def test_no_cone_result_is_a_float():
    for case in json.loads(GOLDEN.read_text()):
        C = ConeV(case["dim"], case["generators"])
        res = membership(C, case["point"])
        out = [C.generators,
               res.coefficients if res.inside else res.certificate]
        if not res.inside:
            out.append(separate_point(C, case["point"]))
        for v in _values(out):      # an int wherever the value is integral
            assert type(v) is int or type(v) is Fraction and v.denominator > 1
        assert all(type(v) in (int, Fraction) for v in _values(lineality(C)))
    C = ConeV(2, [(1, 0), (-1, 1)])
    for f in (extend_functional(C, [(1, 0)], [1]),
              extend_functional(C, [("1/2", "0")], ["0.5"]),
              extend_functional(C, [], [])):
        assert all(type(v) in (int, Fraction) for v in _values(f))


# ---------------------------------------------------------------------------
# lexicographic evaluation
# ---------------------------------------------------------------------------

def test_evaluate_lex_levels():
    f = LexFunctional(2, [(1, 0), (0, 1)])
    assert evaluate_lex(f, (0, 1)) == RcfScalar.parse("e^1")
    assert evaluate_lex(f, (2, -3)) == RcfScalar.parse("2 - 3*e^1")
    assert evaluate_lex(f, (0, 0)) == 0
    # third stage sits at eps^3
    f3 = LexFunctional(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert evaluate_lex(f3, (0, 0, 5)) == RcfScalar.parse("5*e^3")


def test_sign_at_matches_the_sign_of_the_jet():
    rng = random.Random(2027)
    for _ in range(200):
        dim, k = rng.randint(1, 4), rng.randint(1, 5)
        f = LexFunctional(dim, [[F(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(dim)] for _ in range(k)])
        v = tuple(rng.randint(-2, 2) for _ in range(dim))
        assert f.sign_at(v) == evaluate_lex(f, v).sign()


# ---------------------------------------------------------------------------
# extension from a subspace
# ---------------------------------------------------------------------------

def test_extend_functional_basic():
    C = ConeV(2, [(0, 1)])
    f = extend_functional(C, [(1, 0)], [1])
    assert evaluate_lex(f, (1, 0)) == 1          # agrees on H
    v = evaluate_lex(f, (0, 1))
    assert v > 0 and not v.terms.get(0)         # strictly positive below H


def test_extend_functional_trivial_subspace():
    C = ConeV(2, [(1, 0)])
    f = extend_functional(C, [], [])
    assert evaluate_lex(f, (1, 0)) > 0


def test_extend_functional_zero_on_line():
    C = ConeV(2, [(1, 0), (-1, 0)])
    f = extend_functional(C, [(1, 0)], [0])
    assert evaluate_lex(f, (1, 0)) == 0
    assert evaluate_lex(f, (-1, 0)) == 0


def test_extend_functional_precondition():
    # (C+H) ∩ -(C+H) is the whole plane here, not H
    C = ConeV(2, [(1, 1), (-1, -1), (0, 1), (0, -1)])
    with pytest.raises(ValueError):
        extend_functional(C, [(1, 0)], [1])


def test_extend_functional_lp_fallback():
    # zero-extension of phi_H is negative on the generator (-1, 1); the
    # LP fallback must still produce a valid extension
    C = ConeV(2, [(1, 0), (-1, 1)])
    f = extend_functional(C, [(1, 0)], [1])
    assert evaluate_lex(f, (1, 0)) == 1
    assert evaluate_lex(f, (-1, 1)) >= 0
    assert evaluate_lex(f, (-1, 1)) > 0


def test_extend_functional_rejects_negative_on_h():
    C = ConeV(2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        extend_functional(C, [(1, 0)], [-1])


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_cone_json_roundtrip():
    C = ConeV(2, [(F(1, 2), F(-3)), (0, 1)])
    C2 = cone_from_json(cone_to_json(C))
    assert C2.dim == C.dim and C2.generators == C.generators


def test_lexfunctional_json_roundtrip():
    f = LexFunctional(2, [(F(1, 3), F(0)), (F(0), F(-2))])
    g = LexFunctional.from_json(f.to_json())
    assert g.stages == f.stages and g.dim == f.dim
