"""End-to-end acceptance checks across all six modules.

Each test covers one headline guarantee, prints exactly one PASS/FAIL
line, and enforces a wall-clock budget.  Exactness claims are asserted
with ``==`` on rational/jet values; floating-point claims carry the
pinned tolerance next to the assert.  Randomized batches use frozen
seeds whose expected outcomes were computed independently first.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from ncsos.cones import (
    ConeV,
    PointInsideCone,
    evaluate_lex,
    lineality,
    membership,
    separate_point,
)
from ncsos.exactla import solve_linear
from ncsos.groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    c_of,
    l1_norm_bound,
    laplacian,
)
from ncsos.qc import QC
from ncsos.rcf import (
    RcfComplex,
    RcfScalar,
    UniPoly,
    cauchy_schwarz_check,
    cp_level_check,
    eval_derivative_functional,
    hermitian_psd_check,
)
from ncsos.repwitness import (
    UnitaryRepWitness,
    refutation_witness,
    replay_witness_value,
    verify_unitary_witness,
)
from ncsos.soscone import (
    CoverageError,
    SosCertificate,
    certify_membership,
    delta_interior_shift,
    interior_shift_certificate,
    kazhdan_constant_finite,
    laplacian_bound,
    laplacian_sos_certificate,
    lemma_bounded_certificate,
    nu_table,
    verify_certificate,
    witness_from_word_values,
)

FREE1 = AlgebraSpec.free(1)
FREE2 = AlgebraSpec.free(2)
GENS2 = [(1,), (-1,), (2,), (-2,)]

unit = AlgebraElement.unit
word = AlgebraElement.from_word


@contextmanager
def criterion(n, label, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:2d}: FAIL - {label}")
        raise
    dt = time.perf_counter() - t0
    status = "PASS" if dt < limit_s else "FAIL"
    print(f"ACCEPTANCE {n:2d}: {status} - {label} [{dt:.2f}s, budget {limit_s}s]")
    assert dt < limit_s, f"criterion {n} took {dt:.2f}s, budget {limit_s}s"


def test_criterion_01_infinitesimal_cauchy_schwarz_violation():
    # a = 1 + t^2: the one-level derivative functional gives
    # phi(a* a) = 1 + 4eps yet fails Cauchy-Schwarz by exactly 4eps^2.
    with criterion(1, "one-level functional breaks Cauchy-Schwarz by 4e^2", 1):
        a = UniPoly([QC(1), QC(0), QC(1)])
        v = eval_derivative_functional(a.star() * a, "single_level")
        assert v.re == RcfScalar.parse("1 + 4*e^1")
        assert v.im == 0
        res = cauchy_schwarz_check("single_level", a, UniPoly([QC(1)]))
        assert not res.holds
        assert res.lhs == RcfScalar.parse("1 + 4*e^1 + 4*e^2")
        assert res.rhs == RcfScalar.parse("1 + 4*e^1")
        assert res.excess == RcfScalar.parse("4*e^2")
        assert res.excess > 0


def test_criterion_02_jet_moment_matrix_not_psd():
    # [[1, 1+2eps], [1+2eps, 1+4eps]] has determinant -4eps^2 < 0, so the
    # exact PSD check must say no.
    with criterion(2, "2x2 jet matrix rejected, determinant -4e^2", 5):
        one = RcfComplex(RcfScalar.parse("1"))
        off = RcfComplex(RcfScalar.parse("1 + 2*e^1"))
        corner = RcfComplex(RcfScalar.parse("1 + 4*e^1"))
        M = [[one, off], [off, corner]]
        assert not hermitian_psd_check(M)
        det = (M[0][0] * M[1][1] - M[0][1] * M[1][0]).re
        assert det == RcfScalar.parse("-4*e^2")
        assert det < 0


def test_criterion_03_full_series_strictly_positive_yet_not_cp():
    # the full-series functional is strictly positive on every nonzero
    # square, but already fails complete positivity at two rows.
    with criterion(3, "full-series positive on 50 squares, 2-row CP fails", 5):
        rng = random.Random(4040)
        seen = 0
        while seen < 50:
            deg = rng.randint(0, 6)
            p = UniPoly([QC(F(rng.randint(-5, 5), rng.randint(1, 4)),
                            F(rng.randint(-5, 5), rng.randint(1, 4)))
                         for _ in range(deg + 1)])
            if not p.coeffs:
                continue
            v = eval_derivative_functional(p.star() * p, "full_series")
            assert v.im == 0
            assert v.re > 0
            seen += 1
        rows = [UniPoly([QC(1)]), UniPoly([QC(1), QC(0), QC(1)])]
        assert not cp_level_check("full_series", rows)


def _assert_separation_contract(C, x, f):
    lin = lineality(C)

    def in_lin(g):
        if not lin:
            return not any(g)
        A = [[lin[j][i] for j in range(len(lin))] for i in range(C.dim)]
        return solve_linear(A, list(g)) is not None

    assert evaluate_lex(f, x) < 0
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


def test_criterion_04_separation_contract_randomized():
    # 200 outside points across dimensions 1..6: the staged functional is
    # negative at the point, nonnegative on generators, strictly positive
    # off the lineality space, zero on it; membership is the exact oracle.
    with criterion(4, "200 exact cone separations pass the sign contract", 60):
        rng = random.Random(20260814)
        outside = 0
        while outside < 200:
            dim = rng.randint(1, 6)
            k = rng.randint(1, 2 * dim)
            gens = []
            while len(gens) < k:
                g = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                if any(g):
                    gens.append(g)
            x = tuple(F(rng.randint(-4, 4)) for _ in range(dim))
            C = ConeV(dim, gens)
            if membership(C, x).inside:
                # cross-validation: separation must refuse inside points
                try:
                    separate_point(C, x)
                    raise AssertionError("separated a member point")
                except PointInsideCone:
                    continue
            f = separate_point(C, x)
            _assert_separation_contract(C, x, f)
            outside += 1


def test_criterion_05_laplacian_is_half_sum_of_ideal_squares():
    # Delta(S) on free(2) with the 4-letter symmetric set equals
    # (1/2) sum_s c(s)* c(s), certified and verified exactly.
    with criterion(5, "Laplacian certificate on free(2) verifies exactly", 1):
        cert = laplacian_sos_certificate(FREE2, GENS2)
        assert cert.target == laplacian(FREE2, GENS2)
        assert sorted(w for w, _ in cert.squares) == [F(1, 2)] * 4
        rebuilt = AlgebraElement(FREE2, {})
        for w, s in cert.squares:
            rebuilt = rebuilt + s.star() * s * w
        assert rebuilt == cert.target
        assert verify_certificate(cert)


def test_criterion_06_bounded_element_certificates():
    # lam*1 - a*a for a = 1+g at lam = 4 is exactly (1-g)*(1-g); random
    # real-rational elements of degree <= 2 certify from their own bound.
    with criterion(6, "l1-bound certificates verify, fixed case is (1-g)*(1-g)", 10):
        g = word(FREE1, (1,))
        cert = lemma_bounded_certificate(unit(FREE1) + g, 4)
        assert verify_certificate(cert)
        assert len(cert.squares) == 1
        w0, s0 = cert.squares[0]
        assert w0 == 1
        assert s0 == unit(FREE1) - g
        assert s0.star() * s0 == cert.target
        rng = random.Random(606)
        words2 = ball(FREE2, 2)
        done = 0
        while done < 20:
            a = AlgebraElement(FREE2, {})
            for w in words2:
                if rng.random() < 0.3:
                    a = a + word(FREE2, w,
                                 F(rng.randint(-3, 3), rng.randint(1, 3)))
            if not a.terms:
                continue
            rand_cert = lemma_bounded_certificate(a)
            assert verify_certificate(rand_cert)
            done += 1


def test_criterion_07_interior_shift_certificate():
    # b = g + g^{-1} plus 2 units admits an exactly verifying certificate.
    with criterion(7, "g + g^-1 + 2 certifies exactly", 5):
        b = word(FREE1, (1,)) + word(FREE1, (-1,))
        cert = interior_shift_certificate(b, 2)
        assert cert.target == b + unit(FREE1) * 2
        assert verify_certificate(cert)


def test_criterion_08_laplacian_domination_both_signs():
    # b = c(a)* c(b) + c(b)* c(a): one constant C certifies C*Delta + b and
    # C*Delta - b in the ideal cone, below the domination cap computed from
    # the length weights nu(a) = 2 and nu(ab) = 8.
    with criterion(8, "symmetric cross term dominated by C*Delta both ways", 120):
        ca, cb = c_of(FREE2, (1,)), c_of(FREE2, (2,))
        b = ca.star() * cb + cb.star() * ca
        table = nu_table(FREE2, GENS2, [(1,), (1, 2)])
        assert table[(1,)] == 2
        assert table[(1, 2)] == 8
        cap = laplacian_bound(b, GENS2)
        delta = laplacian(FREE2, GENS2)
        c_pos, cert_pos = delta_interior_shift(b, GENS2)
        c_neg, cert_neg = delta_interior_shift(-b, GENS2)
        C = max(c_pos, c_neg)
        assert 0 < C <= cap
        for side, cert, c_side in ((b, cert_pos, c_pos), (-b, cert_neg, c_neg)):
            squares = list(cert.squares)
            extra = C - c_side
            if extra > 0:
                # top up with Delta's own ideal squares to reach the common C
                squares += [(extra / 2, c_of(FREE2, s)) for s in GENS2]
            lifted = SosCertificate(target=delta * C + side, squares=squares,
                                    mode="augmentation")
            assert verify_certificate(lifted)


def test_criterion_09_finite_group_spectral_gap_pipeline(no_sdp):
    # Z/3 with both nontrivial elements: gap exactly 3, margin 3/2; random
    # ideal elements with certified l1 bound exactly 1 stay certifiable at
    # shift coefficient 7/5 < 3/2.
    with criterion(9, "Z/3 gap = 3, twenty unit-bound shifts certify", 60):
        Z3 = AlgebraSpec.cyclic(3)
        S = [1, 2]
        gap, _, exact = kazhdan_constant_finite(Z3, S)
        assert gap == 3 and exact
        delta = laplacian(Z3, S)
        triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                   (20, 21, 29), (1, 0, 1), (0, 1, 1)]
        rng = random.Random(909)
        for _ in range(20):
            p, q, r = triples[rng.randrange(len(triples))]
            t = F(rng.randint(1, 9), rng.randint(1, 9))
            z = QC(F(rng.choice([1, -1]) * p, r),
                   F(rng.choice([1, -1]) * q, r)) * QC(t)
            b = (word(Z3, 0, QC(-2) * QC(z.re)) + word(Z3, 1, z)
                 + word(Z3, 2, z.conjugate()))
            assert b.is_hermitian()
            assert b.augmentation() == QC(0)
            b = b * (1 / l1_norm_bound(b))
            assert l1_norm_bound(b) == 1
            margin = gap / (2 * l1_norm_bound(b))
            assert margin == F(3, 2)
            out = certify_membership(delta + b * F(7, 5), mode="augmentation")
            assert out.verdict == "certified"
            assert verify_certificate(out.certificate)


def test_criterion_10_refutation_pipeline():
    # the alternating character on free(1) refutes -Delta with value -4;
    # ten infeasible degree-1 targets on free(2) all yield replayable
    # unitary-representation witnesses with clearly negative values.
    with criterion(10, "-Delta refuted at -4, ten witnesses replay", 60):
        minus_delta = -laplacian(FREE1, [(1,), (-1,)])
        values = {w: QC((-1) ** (sum(w) % 2)) for w in ball(FREE1, 4)}
        phi = witness_from_word_values(minus_delta, values,
                                       basis=ball(FREE1, 2))
        wit = refutation_witness(minus_delta, phi)
        assert abs(wit.value - (-4.0)) <= 1e-8
        for G in wit.generators:
            Gm = np.asarray(G, dtype=complex)
            residual = np.abs(Gm.conj().T @ Gm - np.eye(Gm.shape[0])).max()
            assert residual <= 1e-8
        replayed = UnitaryRepWitness.from_dict(
            json.loads(json.dumps(wit.to_dict(), indent=1)))
        assert verify_unitary_witness(replayed)
        assert abs(replay_witness_value(replayed) - wit.value) <= 1e-8

        a, ai = word(FREE2, (1,)), word(FREE2, (-1,))
        ssum = sum((word(FREE2, s) for s in GENS2), AlgebraElement(FREE2, {}))
        one = unit(FREE2)
        fixtures = [
            -laplacian(FREE2, GENS2),
            one * 3 - ssum,
            one - a - ai,
            -one,
            a + ai - one,
            ssum * F(1, 2) - one,
            one * 2 - (a + ai) * 2,
            word(FREE2, (1,), QC(0, 1)) + word(FREE2, (-1,), QC(0, -1)),
            one * F(7, 2) - ssum,
            one * (-5) + a + ai,
        ]
        for b in fixtures:
            out = certify_membership(b, mode="full", radius=2)
            assert out.verdict == "refuted"
            try:
                w = refutation_witness(b, out.witness)
            except CoverageError:
                wider = certify_membership(b, mode="full", radius=3)
                assert wider.verdict == "refuted"
                w = refutation_witness(b, wider.witness)
            assert w.value < -1e-3
            assert verify_unitary_witness(w)


def test_criterion_11_hermitian_variable_backend():
    # on the hermitian free *-algebra, z itself has the one-dimensional
    # witness z -> -1 while z^2 is certified exactly.
    with criterion(11, "z refuted at exactly -1 in dim 1, z^2 certified", 5):
        HS1 = AlgebraSpec.free_star(1, hermitian=True)
        z = AlgebraElement.generator(HS1, 1)
        vals = {w: QC((-1) ** len(w)) for w in ball(HS1, 4)}
        phi = witness_from_word_values(z, vals, basis=ball(HS1, 2))
        wit = refutation_witness(z, phi)
        assert len(wit.state) == 1
        assert wit.value == -1.0
        assert wit.generators[0][0, 0] == -1.0 + 0j
        assert verify_unitary_witness(wit)
        out = certify_membership(z * z, mode="full", radius=1)
        assert out.verdict == "certified"
        assert verify_certificate(out.certificate)


def test_criterion_12_verdicts_match_character_oracle():
    # 100 random hermitian degree-<=2 targets on free(1): wherever the
    # sampled character minimum clears the 1e-3 margin, the exact decision
    # pipeline must agree with its sign.
    with criterion(12, "100 free(1) verdicts agree with character scan", 120):
        rng = random.Random(1212)
        theta = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
        counts = {"certified": 0, "refuted": 0}
        for _ in range(100):
            style = rng.random()
            if style < 0.45:
                b = word(FREE1, (), QC(F(rng.randint(-3, 3),
                                         rng.randint(1, 2))))
                for k in (1, 2):
                    z = QC(F(rng.randint(-3, 3), rng.randint(1, 2)),
                           F(rng.randint(-3, 3), rng.randint(1, 2)))
                    w = (1,) * k
                    b = b + word(FREE1, w, z) + word(FREE1, FREE1.word_star(w),
                                                     z.conjugate())
            else:
                p = AlgebraElement(FREE1, {})
                for k in range(3):
                    p = p + word(FREE1, (1,) * k,
                                 QC(F(rng.randint(-2, 2), rng.randint(1, 2)),
                                    F(rng.randint(-2, 2), rng.randint(1, 2))))
                shift = (F(rng.randint(1, 4), rng.randint(1, 3))
                         if style < 0.8 else -F(rng.randint(1, 8), 4))
                b = p.star() * p + word(FREE1, (), QC(shift))
            vals = np.zeros_like(theta)
            for w, z in b.terms.items():
                k = sum(w)
                if k == 0:
                    vals += float(z.re)
                elif k > 0:
                    vals += 2 * (float(z.re) * np.cos(k * theta)
                                 - float(z.im) * np.sin(k * theta))
            m = float(vals.min())
            if abs(m) <= 1e-3:
                continue
            out = certify_membership(b, mode="full", radius=2)
            want = "certified" if m > 0 else "refuted"
            assert out.verdict == want, (m, out.verdict)
            counts[want] += 1
        # both sides of the oracle must actually have been exercised
        assert counts["certified"] >= 10
        assert counts["refuted"] >= 10
