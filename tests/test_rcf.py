from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ncsos.qc import QC
from ncsos.rcf import (
    MODES,
    RcfComplex,
    RcfScalar,
    UniPoly,
    cauchy_schwarz_check,
    cp_level_check,
    eval_derivative_functional,
    hermitian_psd_check,
    level_infinitesimal,
)


def _rand_scalar(rng: random.Random, max_exp=6) -> RcfScalar:
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(0, max_exp)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return RcfScalar(terms)


def test_eps_is_positive_infinitesimal():
    eps = RcfScalar.eps()
    assert eps > 0
    assert not eps.terms.get(0)                 # no standard part
    for q in (Fraction(1, 10 ** 12), Fraction(1, 3), 1, 17):
        assert eps < q
    assert -eps < 0


def test_level_schedule_inequalities():
    # k * eps_i < eps_{i-1} for any integer k, and r * eps_2 < eps_1 ** 2
    for i in (1, 2, 3, 4):
        lo, hi = level_infinitesimal(i), level_infinitesimal(i - 1)
        for k in (1, 10, 10 ** 6, 10 ** 12):
            assert k * lo < hi
    e1, e2 = level_infinitesimal(1), level_infinitesimal(2)
    for r in (Fraction(1), Fraction(10 ** 9), Fraction(999, 2)):
        assert r * e2 < e1 * e1


def test_levels_are_exact_powers_of_eps():
    assert level_infinitesimal(0) == 1
    assert level_infinitesimal(6).terms == {63: Fraction(1)}
    assert level_infinitesimal(7).terms == {127: Fraction(1)}


def test_field_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RcfScalar.zero() == a
        assert a * RcfScalar.one() == a
        assert a - a == RcfScalar.zero()


def test_order_axioms_random():
    rng = random.Random(48103)
    for _ in range(200):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        # total order
        assert (a < b) + (a == b) + (a > b) == 1
        if a < b:
            assert a + c < b + c
        if a > 0 and b > 0:
            assert a * b > 0


def test_division_by_unit():
    # the units of Q[eps] are the nonzero rationals, and dividing by one
    # is exact; the inverse of 1 + eps is an infinite series
    rng = random.Random(7)
    for _ in range(100):
        a = _rand_scalar(rng)
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        assert (a / b) * b == a
        assert (a / b).terms == {e: c / b for e, c in a.terms.items()}
    x = RcfScalar.parse("1 + 4*e^1 - 4*e^2")
    assert x / Fraction(3, 2) == RcfScalar.parse("2/3 + 8/3*e^1 - 8/3*e^2")
    for divisor in (RcfScalar.eps(), RcfScalar.one() + RcfScalar.eps(),
                    RcfScalar.zero()):
        with pytest.raises(ZeroDivisionError):
            RcfScalar.one() / divisor


def test_products_keep_every_term():
    prod = RcfScalar.eps(40) * RcfScalar.eps(40)
    assert prod == RcfScalar.eps(80)
    assert prod > 0
    x = RcfScalar.parse("1 - e^50")
    assert x * x == RcfScalar.parse("1 - 2*e^50 + e^100")


def test_render_parse_roundtrip():
    x = RcfScalar({0: Fraction(1), 1: Fraction(4), 2: Fraction(-4)})
    assert x.render() == "1 + 4*e^1 - 4*e^2"
    assert RcfScalar.parse("1 + 4*e^1 - 4*e^2") == x
    rng = random.Random(99)
    for _ in range(100):
        a = _rand_scalar(rng)
        assert RcfScalar.parse(a.render()) == a
    assert RcfScalar.parse("0") == RcfScalar.zero()
    assert RcfScalar.parse("-3/2*e^5") == RcfScalar({5: Fraction(-3, 2)})


# ---------------------------------------------------------------------------
# derivative functionals
# ---------------------------------------------------------------------------

def _poly(*cs) -> UniPoly:
    return UniPoly([QC(c) if not isinstance(c, QC) else c for c in cs])


def test_single_level_on_one_plus_tsq():
    # phi(p) = p(0) + eps p''(0) on p = (1+t^2): value 1 + 2 eps
    p = _poly(1, 0, 1)
    v = eval_derivative_functional(p, "single_level")
    assert v.im == 0
    assert v.re == RcfScalar.parse("1 + 2*e^1")


def test_cauchy_schwarz_violation_exact():
    # a = 1 + t^2, b = 1:
    #   |phi(a* b)|^2 = (1+2eps)^2 = 1 + 4 eps + 4 eps^2
    #   phi(a* a) phi(b* b) = 1 + 4 eps
    # excess exactly 4 eps^2
    a = _poly(1, 0, 1)
    b = _poly(1)
    res = cauchy_schwarz_check("single_level", a, b)
    assert not res.holds
    assert res.lhs == RcfScalar.parse("1 + 4*e^1 + 4*e^2")
    assert res.rhs == RcfScalar.parse("1 + 4*e^1")
    assert res.excess == RcfScalar.parse("4*e^2")
    assert res.excess > 0 and not res.excess.terms.get(0)


def test_cauchy_schwarz_ignores_the_old_truncation_variable(monkeypatch):
    # a window of order 1 once dropped the 4 eps^2 excess and reported
    # that the inequality holds
    monkeypatch.setenv("NCSOS_TRUNCATION", "1")
    res = cauchy_schwarz_check("single_level", _poly(1, 0, 1), _poly(1))
    assert not res.holds
    assert res.excess == RcfScalar.parse("4*e^2")


def test_cauchy_schwarz_violation_full_series():
    # same pair refutes the full series too: phi(a*a) = 1 + 4 eps + 24 eps^3,
    # and 24 eps^3 < 4 eps^2 so the excess stays positive
    res = cauchy_schwarz_check("full_series", _poly(1, 0, 1), _poly(1))
    assert not res.holds
    assert res.excess == RcfScalar.parse("4*e^2 - 24*e^3")
    assert res.excess > 0


def test_moment_matrix_negative_determinant():
    # rows (1, 1 + t^2) under single_level:
    # [[1, 1+2eps], [1+2eps, 1+4eps]] has determinant -4 eps^2 < 0
    rows = [_poly(1), _poly(1, 0, 1)]
    assert not cp_level_check("single_level", rows)
    assert not cp_level_check("full_series", rows)
    phi = lambda p: eval_derivative_functional(p, "single_level")
    m01 = phi(rows[0].star() * rows[1])
    m11 = phi(rows[1].star() * rows[1])
    det = m11.re - m01.re * m01.re
    assert det == RcfScalar.parse("-4*e^2")


def test_functional_positive_on_squares():
    rng = random.Random(3223)
    for mode in MODES:
        for _ in range(60):
            deg = rng.randint(0, 3 if mode == "single_level" else 6)
            p = UniPoly([QC(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                         for _ in range(deg + 1)])
            v = eval_derivative_functional(p.star() * p, mode)
            assert v.im == 0
            assert v.re >= 0
            if mode == "full_series" and p.coeffs:
                assert v.re > 0


def test_single_level_not_strictly_positive():
    # t^2-free square with only odd structure: p = t gives p* p = t^2,
    # phi = 0 + eps * 2 = 2 eps > 0; but p = t^3: p* p = t^6 -> phi = 0
    p = UniPoly([QC(0), QC(0), QC(0), QC(1)])
    v = eval_derivative_functional(p.star() * p, "single_level")
    assert v.re == 0 and v.im == 0


def test_hermitian_psd_check_basics():
    one = RcfComplex.one()
    zero = RcfComplex.zero()
    eps = RcfComplex(RcfScalar.eps())
    assert hermitian_psd_check([[one, zero], [zero, eps]])
    assert not hermitian_psd_check([[one, zero], [zero, -eps]])
    # infinitesimally broken arrow matrix
    assert not hermitian_psd_check([[eps, one], [one, eps]])
    with pytest.raises(ValueError):
        hermitian_psd_check([[one, one], [zero, one]])


def test_psd_check_sees_a_high_order_negative_eigenvalue():
    # the determinant -eps^80 once fell out of a window of order 63
    e40 = RcfComplex(RcfScalar.eps(40))
    zero = RcfComplex.zero()
    assert not hermitian_psd_check([[e40, zero], [zero, -e40]])
    assert hermitian_psd_check([[e40, zero], [zero, e40]])


def _rand_herm_jet_matrix(rng: random.Random, n: int):
    mats = []
    for _ in range(3):  # coefficients of eps^0, eps^1, eps^2
        A = [[QC(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
              for _ in range(n)] for _ in range(n)]
        H = [[(A[i][j] + A[j][i].conjugate()) / 2 for j in range(n)]
             for i in range(n)]
        mats.append(H)
    M = [[RcfComplex(RcfScalar({e: mats[e][i][j].re for e in range(3)}),
                     RcfScalar({e: mats[e][i][j].im for e in range(3)}))
          for j in range(n)] for i in range(n)]
    return M


def test_psd_check_matches_float_substitution():
    # independent oracle: substitute eps = 1e-6 and look at float eigenvalues;
    # compare whenever the float verdict is margin-separated
    rng = random.Random(555)
    eps = 1e-6
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        M = _rand_herm_jet_matrix(rng, n)
        F = np.array([[complex(sum(float(c) * eps ** e
                                   for e, c in M[i][j].re.terms.items()),
                               sum(float(c) * eps ** e
                                   for e, c in M[i][j].im.terms.items()))
                       for j in range(n)] for i in range(n)])
        w = np.linalg.eigvalsh(F)
        margin = 1e-14 * max(1.0, float(np.abs(F).max()))
        if abs(w.min()) < margin:
            continue
        checked += 1
        assert hermitian_psd_check(M) == (w.min() > 0)
    assert checked > 60


def test_cp_triangle_inequality_for_moment_functionals():
    # completely positive phi built from a measure: phi(t^k) = sum w_i x_i^k.
    # Then phi((a+b)*(a+b)) <= phi(a*a) + phi(b*b) + 2s whenever
    # s^2 >= phi(a*a) phi(b*b).
    rng = random.Random(12000)
    pts = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(-2)),
           (Fraction(2), Fraction(1, 2))]

    def phi(p: UniPoly) -> Fraction:
        tot = Fraction(0)
        for w, x in pts:
            acc, pw = Fraction(0), Fraction(1)
            for c in p.coeffs:
                assert c.im == 0
                acc += c.re * pw
                pw *= x
            tot += w * acc
        return tot

    for _ in range(50):
        a = UniPoly([QC(Fraction(rng.randint(-3, 3))) for _ in range(4)])
        b = UniPoly([QC(Fraction(rng.randint(-3, 3))) for _ in range(4)])
        qa, qb = phi(a.star() * a), phi(b.star() * b)
        q_ab = phi((a + b).star() * (a + b))
        # smallest convenient rational s with s^2 >= qa*qb
        s = Fraction(1)
        while s * s < qa * qb:
            s *= 2
        for _ in range(40):
            mid = s / 2
            if mid * mid >= qa * qb:
                s = mid
            else:
                break
        assert q_ab <= qa + qb + 2 * s
