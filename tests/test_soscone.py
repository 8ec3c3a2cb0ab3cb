"""Membership, certification, absorption, domination, and Kazhdan tests.

Expected values fall into three buckets:
  * exact hand identities ((1-g)*(1-g) expansions, Laplacian half-sum,
    cyclic-group spectra computed from 2 - 2cos(2*pi*k/m));
  * independent oracles: a 360-angle character scan for free(1) membership
    verdicts, float eigenvalues for certified Kazhdan enclosures;
  * structural guarantees re-checked by the exact verifiers
    (verify_certificate / verify_witness), which redo every identity in
    rational arithmetic with no reference to the solver.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncsos.groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    c_of,
    l1_norm_bound,
    laplacian,
)
from ncsos.qc import QC
from ncsos import sdp, soscone
from ncsos.soscone import (
    KAPPA,
    CoverageError,
    GramAssembly,
    ProjectionError,
    SosCertificate,
    certificate_defect,
    certificate_from_json,
    certificate_to_json,
    certify_membership,
    delta_interior_shift,
    exact_dual_witness,
    gram_basis,
    interior_shift_certificate,
    kazhdan_constant_finite,
    kazhdan_margin_check,
    l1_absorption_certificate,
    laplacian_bound,
    laplacian_sos_certificate,
    lemma_bounded_certificate,
    nu_table,
    round_and_project,
    sos_feasibility,
    verify_certificate,
    verify_witness,
    witness_from_json,
    witness_from_word_values,
    witness_to_json,
)

F = Fraction

FREE1 = AlgebraSpec.free(1)
FREE2 = AlgebraSpec.free(2)
GENS2 = [(1,), (-1,), (2,), (-2,)]


def unit(spec):
    return AlgebraElement.unit(spec)


def gen(spec, i):
    return AlgebraElement.generator(spec, i)


def char_min(b, samples=360):
    """Independent oracle for free(1): minimum of b over the circle.

    Every unitary character a -> e^{i*theta} sends a hermitian element to
    a real number; membership in the squares cone forces all of these to
    be nonnegative.
    """
    lo = math.inf
    for k in range(samples):
        th = 2 * math.pi * k / samples
        v = 0.0
        for w, cf in b.terms.items():
            n = sum(w)
            v += float(cf.re) * math.cos(n * th) - float(cf.im) * math.sin(n * th)
        lo = min(lo, v)
    return lo


# ---------------------------------------------------------------------------
# gram_basis
# ---------------------------------------------------------------------------

def test_gram_basis_full_uses_half_degree_ball():
    g = gen(FREE1, 1)
    b = unit(FREE1) * 2 - g - g.star()
    assert sorted(gram_basis(b, "full")) == sorted(ball(FREE1, 1))
    deg3 = b * (g + g.star())  # degree 2 -> radius 1
    assert len(gram_basis(deg3 + deg3.star(), "full")) == len(ball(FREE1, 1))


def test_gram_basis_unit_target_is_identity_only():
    assert gram_basis(unit(FREE1), "full") == [FREE1.identity_word]


def test_gram_basis_augmentation_drops_identity():
    d = laplacian(FREE2, GENS2)
    words = gram_basis(d, "augmentation")
    assert FREE2.identity_word not in words
    assert sorted(words) == sorted(w for w in ball(FREE2, 1) if w != ())


def test_gram_basis_rejects_non_hermitian():
    with pytest.raises(ValueError):
        gram_basis(gen(FREE1, 1), "full")


def test_gram_basis_augmentation_needs_group():
    sx = AlgebraSpec.free_star(1)
    x = gen(sx, 1)
    with pytest.raises(ValueError):
        gram_basis(x + x.star(), "augmentation")


# ---------------------------------------------------------------------------
# membership: hand-checked verdicts
# ---------------------------------------------------------------------------

def test_boundary_square_is_certified_exactly():
    # 2 - g - g^{-1} = (1-g)*(1-g), a boundary point of the cone
    g = gen(FREE1, 1)
    b = unit(FREE1) * 2 - g - g.star()
    out = certify_membership(b)
    assert out.verdict == "certified"
    assert out.certificate.residual_policy == {"kind": "exact"}
    assert verify_certificate(out.certificate)
    assert not certificate_defect(out.certificate).terms
    assert out.certificate.target == b


def test_interior_target_certified():
    g = gen(FREE1, 1)
    out = certify_membership(unit(FREE1) * 3 - g - g.star())
    assert out.verdict == "certified"
    assert verify_certificate(out.certificate)


def test_negated_square_is_refuted_with_exact_witness():
    g = gen(FREE1, 1)
    b = g + g.star() - unit(FREE1) * 2
    assert char_min(b) < -1e-3  # oracle: not a sum of squares
    out = certify_membership(b)
    assert out.verdict == "refuted"
    wit = out.witness
    assert wit.value_at_target < 0
    assert verify_witness(wit)
    assert wit.value_of(b) == QC(wit.value_at_target)


def test_zero_target_certified_trivially():
    out = certify_membership(AlgebraElement(FREE1, {}))
    assert out.verdict == "certified"
    assert out.certificate.squares == []
    assert verify_certificate(out.certificate)


def test_membership_rejects_non_hermitian():
    with pytest.raises(ValueError):
        certify_membership(gen(FREE1, 1))


def test_membership_augmentation_requires_ideal():
    with pytest.raises(ValueError):
        certify_membership(unit(FREE2), mode="augmentation")


def test_minus_laplacian_refuted_in_augmentation_mode():
    d = laplacian(FREE2, GENS2)
    out = certify_membership(d * F(-1), mode="augmentation")
    assert out.verdict == "refuted"
    assert verify_witness(out.witness)


def test_laplacian_certified_in_augmentation_mode():
    d = laplacian(FREE2, GENS2)
    out = certify_membership(d, mode="augmentation")
    assert out.verdict == "certified"
    assert out.certificate.mode == "augmentation"
    for _, a in out.certificate.squares:
        assert a.augmentation() == QC(0)
    assert verify_certificate(out.certificate)


def test_constructed_sums_of_squares_always_certify():
    """Elements built as explicit sums of squares must come back certified."""
    rng = random.Random(7)
    words1 = ball(FREE1, 1)
    for k in range(8):
        b = AlgebraElement(FREE1, {})
        for _ in range(rng.randint(1, 2)):
            a = AlgebraElement(FREE1, {
                words1[rng.randrange(len(words1))]: QC(F(rng.randint(-2, 2)),
                                                       F(rng.randint(-2, 2)))
                for _ in range(2)})
            b = b + a.star() * a
        if k % 2 == 0:
            b = b + unit(FREE1)
        out = certify_membership(b)
        assert out.verdict == "certified"
        assert verify_certificate(out.certificate)
        assert out.certificate.target == b


def test_verdicts_agree_with_character_oracle():
    rng = random.Random(19)
    words = ball(FREE1, 2)
    for _ in range(12):
        b = AlgebraElement(FREE1, {})
        for _ in range(3):
            w = words[rng.randrange(len(words))]
            z = QC(F(rng.randint(-3, 3), rng.randint(1, 2)),
                   F(rng.randint(-3, 3), rng.randint(1, 2)))
            b = b + AlgebraElement(FREE1, {w: z})
        b = b + b.star()
        lo = char_min(b)
        if abs(lo) < 1e-3:
            continue  # too close to the boundary for a clean verdict
        out = certify_membership(b)
        if lo < 0:
            assert out.verdict == "refuted"
            assert verify_witness(out.witness)
        else:
            assert out.verdict == "certified"
            assert verify_certificate(out.certificate)


# ---------------------------------------------------------------------------
# feasibility + rounding internals
# ---------------------------------------------------------------------------

def test_identity_gram_rounds_immediately():
    # with G = I the target is sum_w w*w = |basis| * 1 and rounding is exact
    basis = ball(FREE1, 1)
    b = unit(FREE1) * len(basis)
    cert = round_and_project(np.eye(len(basis)), b, basis=basis)
    assert verify_certificate(cert)
    assert sum(w for w, _ in cert.squares) == len(basis)


def test_round_and_project_failure_reports_margin():
    with pytest.raises(ProjectionError):
        round_and_project(np.zeros((1, 1)), unit(FREE1) * F(-1),
                          basis=[FREE1.identity_word])


def test_feasibility_margin_sign_tracks_membership():
    g = gen(FREE1, 1)
    inside = sos_feasibility(unit(FREE1) * 3 - g - g.star())
    outside = sos_feasibility(g + g.star() - unit(FREE1) * 3)
    assert inside.margin > 1e-6
    assert outside.margin < -1e-6


def test_dual_witness_from_feasibility_run():
    g = gen(FREE1, 1)
    b = g + g.star() - unit(FREE1) * 3
    feas = sos_feasibility(b)
    wit = exact_dual_witness(b, feas)
    assert wit.value_at_target < 0
    assert verify_witness(wit)


# ---------------------------------------------------------------------------
# sparse constraint entries against the dense definitions
# ---------------------------------------------------------------------------

SPARSE_CASES = {
    "free2-r2-full": (FREE2, ball(FREE2, 2), "full"),
    "z6-augmentation": (AlgebraSpec.cyclic(6), [1, 2, 3, 4, 5],
                        "augmentation"),
    "free-star1-r2-full": (AlgebraSpec.free_star(1),
                           ball(AlgebraSpec.free_star(1), 2), "full"),
}


def dense_constraints(asm):
    """H = (E + E*)/2 and K = (E - E*)/(2i) per class, from the products."""
    n, spec = asm.n, asm.spec
    half, minus_half_i = QC(F(1, 2)), QC(0, F(-1, 2))
    order, mats = [], []
    for k, w in enumerate(asm.class_reps):
        E = [[asm.products[i][j].get(w, QC(0)) for j in range(n)]
             for i in range(n)]
        order.append((k, "H"))
        mats.append([[(E[i][j] + E[j][i].conjugate()) * half
                      for j in range(n)] for i in range(n)])
        if spec.word_star(w) != w:
            order.append((k, "K"))
            mats.append([[(E[i][j] - E[j][i].conjugate()) * minus_half_i
                          for j in range(n)] for i in range(n)])
    assert order == asm.constraint_class
    return mats


def random_hermitian_qc(n, rng):
    Q = [[QC(0)] * n for _ in range(n)]
    for i in range(n):
        Q[i][i] = QC(F(rng.randint(-9, 9), rng.randint(1, 5)))
        for j in range(i + 1, n):
            Q[i][j] = QC(F(rng.randint(-9, 9), rng.randint(1, 5)),
                         F(rng.randint(-9, 9), rng.randint(1, 5)))
            Q[j][i] = Q[i][j].conjugate()
    return Q


def random_hermitian(n, rng):
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (W + W.conj().T) / 2


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sparse_entries_match_dense_definitions_exactly(case):
    spec, basis, mode = SPARSE_CASES[case]
    asm = GramAssembly(spec, basis, mode)
    dense = dense_constraints(asm)
    n = asm.n
    assert asm.A_exact == dense
    Q = random_hermitian_qc(n, random.Random(3))
    expect = []
    for A in dense:
        acc = QC(0)
        for i in range(n):
            for j in range(n):
                acc = acc + A[i][j].conjugate() * Q[i][j]
        assert acc.im == 0
        expect.append(acc.re)
    assert asm.apply(Q) == expect
    # entries are halves of Gaussian integers, so twice the matrices are
    # exact in floating point and so is their float Gram matrix
    twice = np.array([[[complex(2 * z) for z in row] for row in A]
                      for A in dense])
    assert all((2 * z).re.denominator == 1 and (2 * z).im.denominator == 1
               for A in dense for row in A for z in row)
    gram4 = np.einsum("kij,lij->kl", twice.conj(), twice).real
    assert [[4 * g for g in row] for row in asm.gram_inner()] == \
        [[F(int(x)) for x in row] for row in gram4]


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sdp_operators_match_dense_einsum(case):
    spec, basis, mode = SPARSE_CASES[case]
    asm = GramAssembly(spec, basis, mode)
    A = np.array([[[complex(z) for z in row] for row in M]
                  for M in dense_constraints(asm)])
    entries = [(k, i, j, complex(c)) for k, ents in enumerate(asm.entries)
               for i, j, c in ents]
    ops = sdp.SparseConstraints(entries, asm.n, asm.m)
    rng = np.random.default_rng(5)
    X, Zi = random_hermitian(asm.n, rng), random_hermitian(asm.n, rng)
    y = rng.standard_normal(asm.m)
    np.testing.assert_allclose(ops.apply(X),
                               np.einsum("kij,ji->k", A, X).real,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ops.adjoint(y),
                               np.einsum("k,kij->ij", y, A),
                               rtol=0, atol=1e-12)
    S = np.einsum("kij,lji->kl", X @ A @ Zi, A).real
    np.testing.assert_allclose(ops.schur(X, Zi), (S + S.T) / 2,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ops.trace, np.einsum("kii->k", A).real,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(ops.sq_norms,
                               np.einsum("kij,kij->k", A, A.conj()).real,
                               rtol=0, atol=1e-12)


def test_radius_three_assembly_is_fast_and_full_mode_gram_is_diagonal():
    import time

    start = time.perf_counter()
    asm = GramAssembly(FREE2, ball(FREE2, 3), "full")
    elapsed = time.perf_counter() - start
    assert (asm.n, asm.m) == (53, 1457)
    assert elapsed < 2.0
    G = asm.gram_inner()
    assert all(not G[k][l] for k in range(asm.m) for l in range(asm.m)
               if k != l)
    assert all(G[k][k] > 0 for k in range(asm.m))


# ---------------------------------------------------------------------------
# dual witnesses as standalone values
# ---------------------------------------------------------------------------

def refuted_witness():
    g = gen(FREE1, 1)
    b = g + g.star() - unit(FREE1) * 2
    return b, certify_membership(b).witness


def test_witness_value_of_needs_coverage():
    _, wit = refuted_witness()
    far = AlgebraElement(FREE1, {(1, 1, 1, 1): QC(1)})
    far = far + far.star()
    with pytest.raises(CoverageError):
        wit.value_of(far)


def test_witness_rebuild_from_word_values_matches():
    b, wit = refuted_witness()
    again = witness_from_word_values(b, wit.word_values, basis=wit.basis,
                                     mode=wit.mode)
    assert again.moment == wit.moment
    assert again.value_at_target == wit.value_at_target


def test_witness_from_word_values_rejects_positive_value():
    b = unit(FREE1) * 2 - gen(FREE1, 1) - gen(FREE1, 1).star()
    values = {(1,): QC(1), (-1,): QC(1), (1, 1): QC(1), (-1, -1): QC(1)}
    with pytest.raises(ValueError):
        witness_from_word_values(b, values)  # phi(b) = 0, not negative


def test_witness_from_word_values_missing_entry():
    b = unit(FREE1) * 2 - gen(FREE1, 1) - gen(FREE1, 1).star()
    with pytest.raises(CoverageError):
        witness_from_word_values(b, {(1,): QC(1)})


def test_witness_tampering_is_detected():
    _, wit = refuted_witness()
    assert verify_witness(wit)
    hacked = witness_from_json(witness_to_json(wit))
    hacked.moment[0][0] = hacked.moment[0][0] + QC(1)
    assert not verify_witness(hacked)
    hacked2 = witness_from_json(witness_to_json(wit))
    object.__setattr__(hacked2, "value_at_target", F(1))
    assert not verify_witness(hacked2)


def test_witness_json_roundtrip_is_stable():
    _, wit = refuted_witness()
    text = witness_to_json(wit)
    back = witness_from_json(text)
    assert witness_to_json(back) == text
    assert back.moment == wit.moment
    assert back.value_at_target == wit.value_at_target
    assert verify_witness(back)


# ---------------------------------------------------------------------------
# l1 absorption
# ---------------------------------------------------------------------------

def test_absorption_single_pair():
    g = gen(FREE1, 1)
    cert = l1_absorption_certificate(g + g.star(), 2)
    assert cert.squares == [(F(1), unit(FREE1) - g)]
    assert cert.target == unit(FREE1) * 2 - g - g.star()
    assert verify_certificate(cert)


def test_absorption_complex_coefficient():
    # i*g - i*g^{-1} is hermitian; the square picks up the phase
    h = AlgebraElement(FREE1, {(1,): QC(0, 1), (-1,): QC(0, -1)})
    cert = l1_absorption_certificate(h, 2)
    assert len(cert.squares) == 1
    w, a = cert.squares[0]
    assert w == 1 and a == unit(FREE1) - gen(FREE1, 1) * QC(0, 1)
    assert verify_certificate(cert)


def test_absorption_self_inverse_generator():
    z2 = AlgebraSpec.cyclic(2)
    h = AlgebraElement(z2, {1: QC(2)})
    cert = l1_absorption_certificate(h, 2)
    assert cert.squares == [(F(1), unit(z2) - gen(z2, 1))]
    assert verify_certificate(cert)
    # surplus budget shows up as weight on the square 1
    cert4 = l1_absorption_certificate(h, 4)
    assert (F(2), unit(z2)) in cert4.squares
    assert verify_certificate(cert4)


def test_absorption_zero_element():
    cert = l1_absorption_certificate(AlgebraElement(FREE1, {}), 1)
    assert cert.squares == [(F(1), unit(FREE1))]
    assert verify_certificate(cert)


def test_absorption_budget_enforced():
    g = gen(FREE1, 1)
    with pytest.raises(ValueError):
        l1_absorption_certificate(g + g.star(), F(3, 2))


def test_absorption_needs_group_backend():
    sx = AlgebraSpec.free_star(1)
    x = gen(sx, 1)
    with pytest.raises(ValueError):
        l1_absorption_certificate(x + x.star(), 4)


def test_absorption_rejects_non_hermitian():
    with pytest.raises(ValueError):
        l1_absorption_certificate(gen(FREE1, 1), 4)


def test_absorption_random_elements_verify():
    for spec in (FREE2, AlgebraSpec.cyclic(6)):
        rng = random.Random(31)
        words = ball(spec, 2)
        for _ in range(10):
            h = AlgebraElement(spec, {})
            for _ in range(3):
                w = words[rng.randrange(len(words))]
                z = QC(F(rng.randint(-4, 4), rng.randint(1, 3)),
                       F(rng.randint(-4, 4), rng.randint(1, 3)))
                h = h + AlgebraElement(spec, {w: z})
            h = h + h.star()
            lam = 2 * l1_norm_bound(h) + 1
            cert = l1_absorption_certificate(h, lam)
            assert verify_certificate(cert)
            assert cert.target == unit(spec) * lam - h


# ---------------------------------------------------------------------------
# lemma-style bounds: lam - a*a
# ---------------------------------------------------------------------------

def test_lemma_hand_identity():
    g = gen(FREE1, 1)
    cert = lemma_bounded_certificate(unit(FREE1) + g, 4)
    assert cert.target == unit(FREE1) * 2 - g - g.star()
    assert cert.squares == [(F(1), unit(FREE1) - g)]
    assert verify_certificate(cert)


def test_lemma_unitary_root_gives_empty_certificate():
    cert = lemma_bounded_certificate(gen(FREE1, 1), 1)
    assert cert.squares == []
    assert not cert.target.terms
    assert verify_certificate(cert)


def test_lemma_default_budget_is_l1_square():
    g = gen(FREE1, 1)
    a = unit(FREE1) + g + g * g
    cert = lemma_bounded_certificate(a)
    assert cert.target == unit(FREE1) * 9 - a.star() * a
    assert verify_certificate(cert)


def test_lemma_budget_too_small():
    with pytest.raises(ValueError):
        lemma_bounded_certificate(unit(FREE1) + gen(FREE1, 1), 3)


def test_lemma_exact_budget_on_self_inverse():
    z2 = AlgebraSpec.cyclic(2)
    a = unit(z2) + gen(z2, 1)
    cert = lemma_bounded_certificate(a, 4)  # 4 = ||a||_1^2 exactly
    assert cert.target == unit(z2) * 4 - a.star() * a
    assert verify_certificate(cert)


def test_lemma_random_real_rational():
    rng = random.Random(23)
    words = ball(FREE2, 2)
    for _ in range(12):
        a = AlgebraElement(FREE2, {
            words[rng.randrange(len(words))]: QC(F(rng.randint(-3, 3),
                                                   rng.randint(1, 2)))
            for _ in range(3)})
        cert = lemma_bounded_certificate(a)
        assert verify_certificate(cert)


# ---------------------------------------------------------------------------
# interior shift
# ---------------------------------------------------------------------------

def test_interior_shift_hand_case():
    g = gen(FREE1, 1)
    b = g + g.star()
    cert = interior_shift_certificate(b, 2)
    assert cert.target == b + unit(FREE1) * 2
    assert verify_certificate(cert)


def test_interior_shift_zero_target():
    cert = interior_shift_certificate(AlgebraElement(FREE1, {}), 1)
    assert cert.squares == [(F(1), unit(FREE1))]
    assert verify_certificate(cert)


def test_interior_shift_minus_laplacian():
    d = laplacian(FREE2, GENS2)
    cert = interior_shift_certificate(d * F(-1), 100)
    assert cert.target == unit(FREE2) * 100 - d
    assert verify_certificate(cert)


def test_interior_shift_rejects_infeasible():
    with pytest.raises(ValueError):
        interior_shift_certificate(unit(FREE1) * F(-10), 2)


def test_interior_shift_needs_positive_eta():
    with pytest.raises(ValueError):
        interior_shift_certificate(gen(FREE1, 1) + gen(FREE1, 1).star(), 0)


# ---------------------------------------------------------------------------
# Laplacian domination
# ---------------------------------------------------------------------------

def test_nu_values_on_free_group():
    table = nu_table(FREE2, GENS2, [(1,), (1, 2)])
    assert table[(1,)] == 2
    assert table[(1, 2)] == 8


def test_nu_rejects_words_outside_generated_subgroup():
    with pytest.raises(ValueError):
        nu_table(FREE2, [(2,), (-2,)], [(1,)])


def test_laplacian_bound_generator_square():
    b = c_of(FREE2, (1,)).star() * c_of(FREE2, (1,))
    assert laplacian_bound(b, GENS2) == 2


def test_laplacian_bound_cross_term_cap():
    ca, cb = c_of(FREE2, (1,)), c_of(FREE2, (2,))
    b = ca.star() * cb + cb.star() * ca
    cap = laplacian_bound(b, GENS2)
    assert cap == 8 * KAPPA == F(3536, 625)
    assert float(cap) < 5.66


def test_laplacian_bound_zero():
    assert laplacian_bound(AlgebraElement(FREE2, {}), GENS2) == 0


def test_laplacian_bound_outside_span():
    bad = AlgebraElement(FREE1, {(1,): QC(0, 1), (-1,): QC(0, -1)})
    with pytest.raises(ValueError):
        laplacian_bound(bad, [(1,), (-1,)])


def test_kappa_is_a_valid_root_half_bound():
    assert 2 * KAPPA.numerator ** 2 >= KAPPA.denominator ** 2


def test_laplacian_sos_certificate_is_the_half_sum():
    cert = laplacian_sos_certificate(FREE2, GENS2)
    assert cert.target == laplacian(FREE2, GENS2)
    assert sorted(w for w, _ in cert.squares) == [F(1, 2)] * 4
    assert verify_certificate(cert)


def test_delta_shift_zero_target():
    C, cert = delta_interior_shift(AlgebraElement(FREE2, {}), GENS2)
    assert C == 0
    assert cert.squares == [] and not cert.target.terms


def test_delta_shift_of_laplacian_itself_costs_nothing():
    d = laplacian(FREE2, GENS2)
    C, cert = delta_interior_shift(d, GENS2)
    assert C == 0
    assert cert.target == d
    assert verify_certificate(cert)


def test_delta_shift_cross_term_both_signs():
    ca, cb = c_of(FREE2, (1,)), c_of(FREE2, (2,))
    b = ca.star() * cb + cb.star() * ca
    cap = laplacian_bound(b, GENS2)
    d = laplacian(FREE2, GENS2)
    for sgn in (1, -1):
        C, cert = delta_interior_shift(b * F(sgn), GENS2)
        assert 0 < C <= cap
        assert cert.mode == "augmentation"
        assert cert.target == d * C + b * F(sgn)
        assert verify_certificate(cert)


# ---------------------------------------------------------------------------
# Kazhdan constants for finite groups
# ---------------------------------------------------------------------------

def test_kazhdan_z3_exact():
    # both nontrivial characters give 2 - 2cos(2*pi*k/3) = 3
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(3), [1, 2]) == 3


def test_kazhdan_z2_exact():
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(2), [1]) == 2


def test_kazhdan_z4_and_z6_integer_spectra():
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(4), [1, 3]) == 2
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(6), [1, 5]) == 1


def test_kazhdan_z5_certified_enclosure():
    lo, hi, exact = kazhdan_constant_finite(AlgebraSpec.cyclic(5), [1, 4],
                                            return_interval=True)
    truth = 2 - 2 * math.cos(2 * math.pi / 5)
    assert not exact
    assert hi - lo <= F(1, 2 ** 30)
    assert float(lo) - 1e-12 <= truth <= float(hi) + 1e-12
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(5), [1, 4]) == lo


def test_kazhdan_trivial_group_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(1), [])


def test_kazhdan_non_generating_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(4), [2])


def test_kazhdan_identity_in_s_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(3), [0, 1, 2])


# ---------------------------------------------------------------------------
# margin cross-validation
# ---------------------------------------------------------------------------

def positive_type_witness(spec, gens, rng, target):
    """Random positive-type functional from an autocorrelation f* f."""
    elems = ball(spec, spec.order)
    non_e = [w for w in elems if w != spec.identity_word]
    while True:
        f = AlgebraElement(spec, {
            w: QC(F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            for w in elems})
        psi = f.star() * f
        phi = {w: psi.terms.get(w, QC(0)) -
               psi.terms.get(spec.identity_word, QC(0)) for w in non_e}
        if -sum((phi[s].re for s in gens), F(0)) > 0:
            return witness_from_word_values(target, phi, basis=non_e,
                                            mode="augmentation",
                                            require_negative=False)


def test_margin_check_on_laplacian():
    z3 = AlgebraSpec.cyclic(3)
    d = laplacian(z3, [1, 2])
    wit = positive_type_witness(z3, [1, 2], random.Random(5), d)
    assert kazhdan_margin_check(z3, [1, 2], d, wit)


def test_margin_check_zero_numerator():
    z3 = AlgebraSpec.cyclic(3)
    d = laplacian(z3, [1, 2])
    wit = positive_type_witness(z3, [1, 2], random.Random(5), d)
    assert kazhdan_margin_check(z3, [1, 2], AlgebraElement(z3, {}), wit)


def test_margin_check_property_z3():
    """Strict margin inequality holds on 100 random positive functionals."""
    z3 = AlgebraSpec.cyclic(3)
    d = laplacian(z3, [1, 2])
    rng = random.Random(11)
    for _ in range(100):
        wit = positive_type_witness(z3, [1, 2], rng, d)
        z = QC(F(rng.randint(-4, 4), rng.randint(1, 3)),
               F(rng.randint(-4, 4), rng.randint(1, 3)))
        b = AlgebraElement(z3, {1: z, 2: z.conjugate()})
        b = b - unit(z3) * b.augmentation().re
        assert kazhdan_margin_check(z3, [1, 2], b, wit)


def test_margin_check_property_larger_cyclic():
    for m in (4, 5, 6):
        spec = AlgebraSpec.cyclic(m)
        gens = [1, m - 1]
        d = laplacian(spec, gens)
        rng = random.Random(100 + m)
        for _ in range(10):
            wit = positive_type_witness(spec, gens, rng, d)
            z = QC(F(rng.randint(-4, 4), rng.randint(1, 3)),
                   F(rng.randint(-4, 4), rng.randint(1, 3)))
            b = AlgebraElement(spec, {1: z, m - 1: z.conjugate()})
            b = b - unit(spec) * b.augmentation().re
            assert kazhdan_margin_check(spec, gens, b, wit)


def test_margin_check_rejects_bad_inputs():
    z3 = AlgebraSpec.cyclic(3)
    d = laplacian(z3, [1, 2])
    wit = positive_type_witness(z3, [1, 2], random.Random(5), d)
    with pytest.raises(ValueError):
        kazhdan_margin_check(z3, [1, 2], unit(z3), wit)  # not in the ideal
    zero_values = {1: QC(0), 2: QC(0)}
    flat = witness_from_word_values(d, zero_values, basis=[1, 2],
                                    mode="augmentation",
                                    require_negative=False)
    with pytest.raises(ValueError):
        kazhdan_margin_check(z3, [1, 2], d, flat)  # trivial functional


# ---------------------------------------------------------------------------
# certificate JSON and tamper detection
# ---------------------------------------------------------------------------

def test_certificate_json_roundtrip_stable():
    g = gen(FREE1, 1)
    cert = certify_membership(unit(FREE1) * 2 - g - g.star()).certificate
    text = certificate_to_json(cert)
    back = certificate_from_json(text)
    assert certificate_to_json(back) == text
    assert back.target == cert.target
    assert back.squares == cert.squares
    assert verify_certificate(back)


def test_certificate_weight_tampering_detected():
    g = gen(FREE1, 1)
    cert = certify_membership(unit(FREE1) * 2 - g - g.star()).certificate
    data = json.loads(certificate_to_json(cert))
    w = F(data["squares"][0]["w"])
    data["squares"][0]["w"] = str(w + 1)
    assert not verify_certificate(certificate_from_json(json.dumps(data)))


def test_certificate_negative_weight_rejected():
    cert = SosCertificate(target=AlgebraElement(FREE1, {}),
                          squares=[(F(-1), unit(FREE1))], mode="full",
                          residual_policy={"kind": "exact"})
    assert not verify_certificate(cert)


def test_augmentation_certificate_square_outside_ideal_rejected():
    d = laplacian(FREE2, GENS2)
    cert = certify_membership(d, mode="augmentation").certificate
    bad = SosCertificate(target=cert.target,
                         squares=cert.squares + [(F(1), unit(FREE2) * 0 +
                                                  unit(FREE2) - unit(FREE2))],
                         mode=cert.mode, residual_policy=cert.residual_policy)
    # adding a zero square is fine; adding a square with augmentation 1 is not
    bad2 = SosCertificate(target=cert.target + unit(FREE2),
                          squares=cert.squares + [(F(1), unit(FREE2))],
                          mode=cert.mode, residual_policy=cert.residual_policy)
    assert verify_certificate(bad)
    assert not verify_certificate(bad2)


def test_absorbed_policy_survives_json():
    g = gen(FREE1, 1)
    h = g + g.star()
    base = l1_absorption_certificate(h, 2)
    cert = SosCertificate(target=base.target, squares=base.squares,
                          mode="full",
                          residual_policy={"kind": "absorbed", "by": h,
                                           "amount": F(1, 3)})
    back = certificate_from_json(certificate_to_json(cert))
    assert back.residual_policy["kind"] == "absorbed"
    assert back.residual_policy["by"] == h
    assert back.residual_policy["amount"] == F(1, 3)
