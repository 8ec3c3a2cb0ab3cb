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

import functools
import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ncsos.groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    c_of,
    l1_norm_bound,
    laplacian,
    spheres,
    star_product,
)
from ncsos.qc import QC, max_digits
from ncsos import sdp, soscone
from ncsos.soscone import (
    KAPPA,
    MAX_NU_WORK,
    CoverageError,
    GramAssembly,
    OversizeError,
    ProjectionError,
    SosCertificate,
    certificate_defect,
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
    witness_from_word_values,
)

F = Fraction

FREE1 = AlgebraSpec.free(1)
FREE2 = AlgebraSpec.free(2)
GENS2 = [(1,), (-1,), (2,), (-2,)]


def unit(spec):
    return AlgebraElement.unit(spec)


def dump(artifact) -> str:
    """The JSON text ``ncsos sos`` writes for a certificate or witness."""
    return json.dumps(artifact.to_dict(), indent=1)


def reread(artifact):
    """The artifact written as JSON text and read back."""
    return type(artifact).from_dict(json.loads(dump(artifact)))


def gen(spec, i):
    return AlgebraElement.generator(spec, i)


def assembly(b, mode="full", basis=None):
    """The Gram assembly of target b, on the default basis unless given."""
    return GramAssembly(b.spec, gram_basis(b, mode) if basis is None
                        else basis, mode)


def products(asm):
    """col_i* col_j for every pair of the assembly's columns."""
    return [[star_product(asm.spec, ci, cj) for cj in asm.columns]
            for ci in asm.columns]


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
    assert out.certificate.to_dict()["absorption"] == {"kind": "exact"}
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
    cert = round_and_project(assembly(b, basis=basis), b, np.eye(len(basis)))
    assert verify_certificate(cert)
    assert sum(w for w, _ in cert.squares) == len(basis)


def test_round_and_project_failure_reports_margin():
    b = unit(FREE1) * F(-1)
    asm = assembly(b, basis=[FREE1.identity_word])
    with pytest.raises(ProjectionError):
        round_and_project(asm, b, np.zeros((1, 1)))


# fixed Gram hints, rounded from SDP runs, so the exact layer is pinned
# without the solver: grid rounding is IEEE-deterministic on any CPU
PINNED_HINTS = {
    "free1-full": (
        AlgebraElement(FREE1, {(): 6, (1,): QC(1, F(1, 2)),
                               (-1,): QC(1, F(-1, 2)),
                               (1, 1): F(1, 3), (-1, -1): F(1, 3)}),
        "full",
        [[2.2144, 0.5 + 0.25j, 0.5 - 0.25j],
         [0.5 - 0.25j, 1.8928, 0.3333],
         [0.5 + 0.25j, 0.3333, 1.8928]],
        "b0de17157fd085b86bc3a939788e54bb9b96d20e7d034897c2fc1b7c40156913"),
    "z5-augmentation": (
        AlgebraElement(AlgebraSpec.cyclic(5), {
            0: 3, 1: QC(F(-1, 2), F(-1, 2)), 2: -1, 3: -1,
            4: QC(F(-1, 2), F(1, 2))}),
        "augmentation",
        [[0.4138, -0.0067 - 0.0966j, -0.0553 - 0.0262j, -0.0906 - 0.0068j],
         [-0.0067 + 0.0966j, 0.4255, 0.0359 - 0.0476j, -0.0553 - 0.0262j],
         [-0.0553 + 0.0262j, 0.0359 + 0.0476j, 0.4255, -0.0067 - 0.0966j],
         [-0.0906 + 0.0068j, -0.0553 + 0.0262j, -0.0067 + 0.0966j, 0.4138]],
        "6ed63ec78b5e9e1e8cdf0c4e71c7fb972b4d89cd23f393e6c440a43cfca3c9e2"),
}


@pytest.mark.parametrize("case", sorted(PINNED_HINTS))
def test_rounding_a_fixed_hint_gives_pinned_certificate_bytes(case):
    b, mode, hint, digest = PINNED_HINTS[case]
    cert = round_and_project(assembly(b, mode), b,
                             np.array(hint, dtype=complex))
    assert verify_certificate(cert)
    assert hashlib.sha256(dump(cert).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the exact sweep onto the constraint slice
# ---------------------------------------------------------------------------

class _Preimage(Exception):
    """Carries the first matrix round_and_project hands to the PSD test."""


def first_preimage(monkeypatch, asm, b, hint):
    """The Gram matrix that round_and_project puts on the slice at its
    first rung, as Fraction matrices (Re, Im)."""
    def capture(M):
        raise _Preimage(M)

    monkeypatch.setattr(soscone.exactla, "ldlt_psd_qc", capture)
    with pytest.raises(_Preimage) as caught:
        round_and_project(asm, b, hint)
    R, I, scale = caught.value.args[0]
    return [[[F(x, scale) for x in row] for row in X] for X in (R, I)]


def target_of(asm, R, I):
    """The hermitian element whose slice holds the integer Gram matrix
    R + iI (augmentation zero in augmentation mode)."""
    spec, terms = asm.spec, {}
    for (k, part), v in zip(asm.constraint_class, asm.apply(R, I)):
        w, x = asm.class_reps[k], F(v, 2)
        z = terms.get(w, QC(0))
        terms[w] = QC(x, z.im) if part == "H" else QC(z.re, -x)
        terms[spec.word_star(w)] = terms[w].conjugate()
    if asm.mode == "augmentation":
        terms[spec.identity_word] = -sum(terms.values(), QC(0))
    return AlgebraElement(spec, terms)


@pytest.mark.parametrize("spec, radius", [
    (FREE2, 2), (AlgebraSpec.free_abelian(2), 2),
    (AlgebraSpec.free_star(2, hermitian=True), 1),
], ids=["free2", "free_abelian2", "free_star2-hermitian"])
def test_full_mode_sweep_is_the_diagonal_min_norm_correction(
        spec, radius, monkeypatch):
    # every Gram position has one reader, so the constraint Gram matrix
    # is diagonal and the minimum-norm correction is z_k = rho_k / (4G)_kk
    asm = GramAssembly(spec, ball(spec, radius), "full")
    G4 = asm.gram_inner()
    assert all(not G4[k][l] for k in range(asm.m) for l in range(asm.m)
               if k != l)
    den = soscone.DENOMINATOR_LADDER[0]
    rng, pick = np.random.default_rng(radius), random.Random(radius)
    words = sorted(asm.covered_words, key=spec.word_key)
    for _ in range(3):
        b = AlgebraElement(spec, {
            pick.choice(words): QC(F(pick.randint(-9, 9), pick.randint(1, 5)),
                                   F(pick.randint(-9, 9), pick.randint(1, 5)))
            for _ in range(6)})
        b = b + b.star()
        hint = random_hermitian(asm.n, rng)
        R, I = soscone._rationalize_hermitian(hint, den)
        rho = [2 * den * bk - qk for bk, qk in zip(asm.beta(b),
                                                   asm.apply(R, I))]
        expect = [[[F(x, den) for x in row] for row in X] for X in (R, I)]
        for k, (ents, (_, part)) in enumerate(zip(asm.entries,
                                                  asm.constraint_class)):
            X = expect[0] if part == "H" else expect[1]
            for i, j, c in ents:
                X[i][j] += F(rho[k], G4[k][k]) * c / den
        assert first_preimage(monkeypatch, asm, b, hint) == expect


@pytest.mark.parametrize("spec, radius", [
    (FREE1, 1), (FREE1, 2), (FREE1, 3), (FREE2, 1), (FREE2, 2), (FREE2, 3),
    (AlgebraSpec.free_abelian(2), 1), (AlgebraSpec.free_abelian(2), 2),
    (AlgebraSpec.free_abelian(2), 3), (AlgebraSpec.free(3), 1),
    (AlgebraSpec.free(3), 2), (AlgebraSpec.free_abelian(3), 1),
    (AlgebraSpec.free_abelian(3), 2),
], ids=["free1-r1", "free1-r2", "free1-r3", "free2-r1", "free2-r2",
        "free2-r3", "free_abelian2-r1", "free_abelian2-r2",
        "free_abelian2-r3", "free3-r1", "free3-r2", "free_abelian3-r1",
        "free_abelian3-r2"])
def test_augmentation_sweep_leaves_only_the_letters_k_conditions_unowned(
        spec, radius):
    # Im x pairs to 0 with each letter's exponent sum for hermitian x in
    # I^2, so these are exactly the conditions the sweep may leave alone
    basis = [w for w in ball(spec, radius) if w != spec.identity_word]
    asm = GramAssembly(spec, basis, "augmentation")
    unowned = {k for k, (_, norm, _) in enumerate(asm.sweep_plan)
               if not norm}
    letters = {asm.constraint_class.index((asm.class_reps.index(
        min(s, spec.word_star(s), key=spec.word_key)), "K"))
        for s in spec.generators()}
    assert unowned == letters
    # an interior hint near an integer Gram matrix lands on the slice of
    # that matrix's target
    n, rng = asm.n, np.random.default_rng(radius)
    W = rng.integers(-1, 2, (n, n)) + 1j * rng.integers(-1, 2, (n, n))
    Q0 = W + W.conj().T + 4 * n * np.eye(n)
    b = target_of(asm, *([[int(x) for x in row] for row in part.tolist()]
                         for part in (Q0.real, Q0.imag)))
    cert = round_and_project(asm, b, Q0 + 1e-3 * random_hermitian(n, rng))
    # round_and_project checked the slice exactly; the identity check of
    # the free2-r3 certificate takes 2 s, and test_cli.py verifies a
    # certificate on that ball end to end
    assert asm.m > 1000 or verify_certificate(cert)


def test_imaginary_residuals_land_in_augmentation_mode():
    # x = c(a) + i c(b) gives x* x imaginary coefficients, so the K
    # conditions of the rounded hint miss by nonzero residuals
    x = c_of(FREE2, (1,)) + c_of(FREE2, (2,)) * QC(0, 1)
    b = x.star() * x + laplacian(FREE2, GENS2)
    asm = assembly(b, "augmentation", basis=gram_basis(b, "augmentation", 2))
    assert any(bk for bk, (_, part) in zip(asm.beta(b), asm.constraint_class)
               if part == "K")
    out = certify_membership(b, "augmentation", radius=2)
    assert out.verdict == "certified"
    assert verify_certificate(reread(out.certificate))


def test_a_generic_hint_on_a_finite_group_names_the_unowned_condition():
    # Hom(Z/6, Z) = 0, so nothing implies the letter's K condition on a
    # finite group; certify_membership never gets here (its basis is the
    # whole group, decided in closed form), a direct call does
    z6 = AlgebraSpec.cyclic(6)
    asm = GramAssembly(z6, list(range(1, 6)), "augmentation")
    hint = random_hermitian(5, np.random.default_rng(6))
    with pytest.raises(ProjectionError, match=r"condition 1 \(K at '1'\) "
                       "owns no Gram position"):
        round_and_project(asm, laplacian(z6, [1, 5]), hint)


def test_feasibility_margin_sign_tracks_membership():
    g = gen(FREE1, 1)
    inside = unit(FREE1) * 3 - g - g.star()
    outside = g + g.star() - unit(FREE1) * 3
    assert sos_feasibility(inside, assembly(inside)).lam > 1e-6
    assert sos_feasibility(outside, assembly(outside)).lam < -1e-6


def test_dual_witness_from_feasibility_run():
    g = gen(FREE1, 1)
    b = g + g.star() - unit(FREE1) * 3
    asm = assembly(b)
    wit = exact_dual_witness(asm, b, sos_feasibility(b, asm))
    assert wit.value_at_target < 0
    assert verify_witness(wit)


# ---------------------------------------------------------------------------
# early stops: at a certifying primal or a refuting dual iterate
# ---------------------------------------------------------------------------

def early_attempts(monkeypatch):
    """(iteration, side) of every early iterate the solver hands to its
    ``accept`` callback, recorded as the solves run: side is "certify"
    for a primal feasible iterate with lam > 0, "refute" for a dual one."""
    attempts, solve = [], sdp.solve_margin_sdp

    def spying(ops, b, accept=None):
        def counted(res):
            attempts.append((res.iterations,
                             "certify" if res.lam > 0 else "refute"))
            return accept(res)
        return solve(ops, b, counted if accept else None)

    monkeypatch.setattr(sdp, "solve_margin_sdp", spying)
    return attempts


def test_refutation_stops_at_the_first_exactly_refuting_iterate(monkeypatch):
    b = -laplacian(FREE2, GENS2)
    asm = assembly(b, basis=gram_basis(b, "full", 2))
    full = sos_feasibility(b, asm)                  # no callback: converges
    attempts = early_attempts(monkeypatch)
    out = certify_membership(b, radius=2)
    assert out.verdict == "refuted"
    assert out.diagnostics["sdp_stop"] == "early_refutation"
    assert attempts == [(out.diagnostics["sdp_iterations"], "refute")]
    assert out.diagnostics["sdp_iterations"] < full.iterations
    # the reported margin is the dual bound b . y, above the optimum
    assert full.lam - 1e-9 <= out.margin < -sdp.TOL
    assert verify_witness(out.witness)
    assert verify_witness(reread(out.witness))


def test_a_failed_early_attempt_leaves_the_solve_as_before(monkeypatch):
    b = -laplacian(FREE2, GENS2)
    asm = assembly(b, basis=gram_basis(b, "full", 2))
    full = sos_feasibility(b, asm)
    dual, calls = soscone.exact_dual_witness, []

    def fail_first(asm, b, res):
        calls.append(res.iterations)
        if len(calls) == 1:
            raise ProjectionError("forced", {})
        return dual(asm, b, res)

    monkeypatch.setattr(soscone, "exact_dual_witness", fail_first)
    attempts = early_attempts(monkeypatch)
    out = certify_membership(b, radius=2)
    assert out.verdict == "refuted"
    assert [side for _, side in attempts] == ["refute"]
    # the second witness comes from the converged iterate, as without
    # the early stop
    assert calls == [attempts[0][0], full.iterations]
    assert out.diagnostics["sdp_iterations"] == full.iterations
    assert out.diagnostics["sdp_stop"] == "converged"
    assert out.margin == full.lam
    assert verify_witness(out.witness)


def pp_shift(spec=FREE1):
    """p* p + 1/2 with p = 1 - 2g + g^2/3: inside the cone at radius 2."""
    g = gen(spec, 1)
    p = unit(spec) - g * 2 + g * g * F(1, 3)
    return p.star() * p + unit(spec) * F(1, 2)


def test_inside_target_stops_at_the_first_certifying_iterate(monkeypatch):
    b = pp_shift()
    asm = assembly(b, basis=gram_basis(b, "full", 2))
    full = sos_feasibility(b, asm)                  # no callback: converges
    attempts = early_attempts(monkeypatch)
    out = certify_membership(b, radius=2)
    assert out.verdict == "certified"
    assert out.diagnostics["sdp_stop"] == "early_certificate"
    assert attempts == [(out.diagnostics["sdp_iterations"], "certify")]
    assert out.diagnostics["sdp_iterations"] < full.iterations
    # the reported margin is the iterate's lam, below the optimum
    assert sdp.TOL < out.margin <= full.lam + 1e-9
    assert verify_certificate(out.certificate)
    assert verify_certificate(reread(out.certificate))


def test_a_failed_certifying_attempt_leaves_the_solve_as_before(monkeypatch):
    b = pp_shift()
    asm = assembly(b, basis=gram_basis(b, "full", 2))
    full = sos_feasibility(b, asm)
    rounding, calls = soscone.round_and_project, []

    def fail_first(asm, b, gram):
        calls.append(gram)
        if len(calls) == 1:
            raise ProjectionError("forced", {})
        return rounding(asm, b, gram)

    monkeypatch.setattr(soscone, "round_and_project", fail_first)
    attempts = early_attempts(monkeypatch)
    out = certify_membership(b, radius=2)
    assert out.verdict == "certified"
    assert [side for _, side in attempts] == ["certify"]
    # the certificate comes from the converged Gram hint, as without the
    # early stop
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], full.gram)
    assert out.diagnostics["sdp_iterations"] == full.iterations
    assert out.diagnostics["sdp_stop"] == "converged"
    assert out.margin == full.lam
    assert verify_certificate(out.certificate)


@pytest.mark.parametrize("case", ["ca-square-r2", "laplacian-r2", "interior"])
def test_inside_and_boundary_targets_make_no_early_attempt(monkeypatch,
                                                           case):
    """No target in the cone makes a refuting attempt.  Boundary targets
    (margin 0) make no certifying attempt either; a target strictly
    inside makes exactly one, which certifies."""
    ca, g = c_of(FREE2, (1,)), gen(FREE2, 1)
    b = {"ca-square-r2": ca.star() * ca,
         "laplacian-r2": laplacian(FREE2, GENS2),
         "interior": unit(FREE2) * 3 - g - g.star()}[case]
    attempts = early_attempts(monkeypatch)
    out = certify_membership(b, radius=2)
    assert out.verdict in ("certified", "undecided")
    if case == "interior":
        assert out.verdict == "certified"
        assert attempts == [(out.diagnostics["sdp_iterations"], "certify")]
    else:
        assert attempts == []
        assert out.diagnostics["sdp_stop"] == "converged"


def test_shift_certification_stops_early_without_refuting(monkeypatch):
    """interior_shift_certificate solves with refute=False: it takes the
    certifying stop, and a target outside the cone tries no witness."""
    g = gen(FREE1, 1)
    attempts = early_attempts(monkeypatch)
    cert = interior_shift_certificate(g + g.star(), 3)
    assert [side for _, side in attempts] == ["certify"]
    assert verify_certificate(cert)
    calls = []
    monkeypatch.setattr(soscone, "exact_dual_witness",
                        lambda *args: calls.append(args))
    out = soscone._certify(g + g.star() - unit(FREE1) * 3, "full", 1, False)
    assert out.verdict == "undecided" and calls == []


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
    prods, order, mats = products(asm), [], []
    for k, w in enumerate(asm.class_reps):
        E = [[QC(*prods[i][j].get(w, (0, 0))) for j in range(n)]
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
    # the integer weights pair to twice <A_k, Q>
    assert asm.apply([[z.re for z in row] for row in Q],
                     [[z.im for z in row] for row in Q]) == \
        [2 * x for x in expect]
    # entries are halves of Gaussian integers, so twice the matrices are
    # exact in floating point and so is their float Gram matrix
    twice = np.array([[[complex(2 * z) for z in row] for row in A]
                      for A in dense])
    assert all((2 * z).re.denominator == 1 and (2 * z).im.denominator == 1
               for A in dense for row in A for z in row)
    gram4 = np.einsum("kij,lij->kl", twice.conj(), twice).real
    assert asm.gram_inner() == [[int(x) for x in row] for row in gram4]


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_sdp_operators_match_dense_einsum(case):
    spec, basis, mode = SPARSE_CASES[case]
    asm = GramAssembly(spec, basis, mode)
    A = np.array([[[complex(z) for z in row] for row in M]
                  for M in dense_constraints(asm)])
    ops = asm.operator
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


def moment_of_values(asm, values):
    """[phi(column_i* column_j)] from the products, phi(e) = 0 in
    augmentation mode."""
    skip = asm.spec.identity_word if asm.mode == "augmentation" else None
    return [[sum((QC(*cw) * values[w] for w, cw in prod.items()
                  if w != skip), QC(0)) for prod in row]
            for row in products(asm)]


@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_moment_and_pairing_match_word_value_definitions(case):
    spec, basis, mode = SPARSE_CASES[case]
    asm = GramAssembly(spec, basis, mode)
    rng = random.Random(11)
    ref = soscone._y_from_word_values(
        asm, {w: asm.ref_value(w) for w in asm.covered_words})
    for y in ([F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(asm.m)],
              ref):
        phi = soscone._word_values_from_y(asm, y)
        assert set(phi) == asm.covered_words
        R, I = asm.moment(y)                # twice the moment matrix
        M = [[QC(F(r, 2), F(i, 2)) for r, i in zip(rr, ir)]
             for rr, ir in zip(R, I)]
        assert M == moment_of_values(asm, phi)
        assert soscone._y_from_word_values(asm, phi) == y
    if spec.is_group():
        ones = 1 if mode == "augmentation" else 0
        assert M == [[QC((i == j) + ones) for j in range(asm.n)]
                     for i in range(asm.n)]
    words = sorted(asm.covered_words, key=spec.word_key)
    for _ in range(5):
        b = AlgebraElement(spec, {
            words[rng.randrange(len(words))]:
                QC(F(rng.randint(-9, 9), rng.randint(1, 5)),
                   F(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(4)})
        b = b + b.star()
        if mode == "augmentation":
            b = b - unit(spec) * b.augmentation()
        y = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(asm.m)]
        phi = soscone._word_values_from_y(asm, y)
        expect = sum((cw * phi[w] for w, cw in b.terms.items()
                      if w in phi), QC(0))
        assert sum(bk * yk for bk, yk in zip(asm.beta(b), y)) == expect


@pytest.mark.parametrize("spec, radius", [
    (FREE2, 1), (AlgebraSpec.free_abelian(2), 1), (AlgebraSpec.cyclic(6), 1),
    (AlgebraSpec.free_star(1), 2),
    (AlgebraSpec.free_star(2, hermitian=True), 1),
], ids=["free2", "free_abelian2", "z6", "free_star1", "free_star2-hermitian"])
def test_integer_products_match_element_products(spec, radius):
    for mode in ("full", "augmentation") if spec.is_group() else ("full",):
        basis = [w for w in ball(spec, radius)
                 if mode == "full" or w != spec.identity_word]
        prods = products(GramAssembly(spec, basis, mode))
        cols = [AlgebraElement.from_word(spec, w) if mode == "full"
                else c_of(spec, w) for w in basis]
        for i, ci in enumerate(cols):
            for j, cj in enumerate(cols):
                got = prods[i][j]
                assert got == {w: (c.re, c.im)
                               for w, c in (ci.star() * cj).terms.items()}
                assert all(type(x) is int for c in got.values() for x in c)


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


def inconsistent_values(wit):
    """The witness's word values with phi(a^2) moved off conj phi(A^2);
    a^2 is outside the target's support, so phi(target) stays real."""
    values = dict(wit.word_values)
    for w in ((1, 1), (-1, -1)):
        values[w] = values[w] + QC(0, 1)
    return values


def test_witness_from_word_values_rejects_inconsistent_values():
    b, wit = refuted_witness()
    with pytest.raises(ValueError, match="hermitian-consistent"):
        witness_from_word_values(b, inconsistent_values(wit),
                                 basis=wit.basis, mode=wit.mode)


def test_verify_witness_rejects_inconsistent_values():
    _, wit = refuted_witness()
    values = inconsistent_values(wit)
    asm = GramAssembly(wit.spec, wit.basis, wit.mode)
    hacked = soscone.DualWitness(
        target=wit.target, mode=wit.mode, basis=wit.basis,
        word_values=values, moment=moment_of_values(asm, values),
        value_at_target=wit.value_at_target)
    assert hacked.moment != wit.moment
    assert hacked.value_of(wit.target) == QC(wit.value_at_target)
    assert not verify_witness(hacked)


def test_witness_tampering_is_detected():
    _, wit = refuted_witness()
    assert verify_witness(wit)
    hacked = reread(wit)
    hacked.moment[0][0] = hacked.moment[0][0] + QC(1)
    assert not verify_witness(hacked)
    hacked2 = reread(wit)
    object.__setattr__(hacked2, "value_at_target", F(1))
    assert not verify_witness(hacked2)


def test_witness_json_roundtrip_is_stable():
    _, wit = refuted_witness()
    text = dump(wit)
    back = soscone.DualWitness.from_dict(json.loads(text))
    assert dump(back) == text
    assert back.moment == wit.moment
    assert back.value_at_target == wit.value_at_target
    assert verify_witness(back)


# ---------------------------------------------------------------------------
# the certificate identity
# ---------------------------------------------------------------------------

def random_fraction_qc(rng):
    return QC(F(rng.randint(-9, 9), rng.randint(1, 12)),
              F(rng.randint(-9, 9), rng.randint(1, 12)))


@pytest.mark.parametrize("spec, mode", [
    (FREE2, "full"), (AlgebraSpec.cyclic(6), "augmentation"),
    (AlgebraSpec.free_star(1), "full")], ids=["free2", "z6", "free_star1"])
def test_certificate_defect_matches_element_arithmetic(spec, mode):
    rng = random.Random(29)
    words = ball(spec, 1)
    for _ in range(6):
        squares = []
        for _ in range(3):
            a = AlgebraElement(spec, {words[rng.randrange(len(words))]:
                                      random_fraction_qc(rng)
                                      for _ in range(3)})
            if mode == "augmentation":
                a = a - a.augmentation()
            squares.append((F(rng.randint(1, 9), rng.randint(1, 9)), a))
        total = AlgebraElement(spec, {})
        for w, a in squares:
            total = total + a.star() * a * w
        x = AlgebraElement(spec, {words[rng.randrange(len(words))]:
                                  random_fraction_qc(rng)})
        for target in (total, total + x + x.star()):
            cert = SosCertificate(target=target, squares=squares, mode=mode)
            assert certificate_defect(cert) == target - total
            assert verify_certificate(cert) == (target == total)
    # the integer pair sums under stress: weight denominators sharing the
    # factors 2 and 3 of the integer products, purely imaginary
    # coefficients, and the words u* v and v* u that every square hits
    u, v = words[1], words[-1]
    squares = []
    for k in range(1, 8):
        a = AlgebraElement(spec, {u: QC(0, F(k, 6)), v: QC(F(1, 2 * k))})
        if mode == "augmentation":
            a = a - a.augmentation()
        squares.append((F(k, 12 * (k + 1)), a))
    total = AlgebraElement(spec, {})
    for w, a in squares:
        total = total + a.star() * a * w
    assert any(c.im and not c.re for c in total.terms.values())
    x = AlgebraElement(spec, {u: QC(0, F(1, 6))})
    for target in (total, total + x + x.star()):
        cert = SosCertificate(target=target, squares=squares, mode=mode)
        assert certificate_defect(cert) == target - total
        assert verify_certificate(cert) == (target == total)


def test_certificate_parse_builds_a_finite_backend_once(monkeypatch):
    # every square repeating the target's backend, in any key order,
    # shares its parsed spec; a square written differently is parsed on
    # its own and must give the same spec, and no other spelling of a
    # field (1.0 or true for 1) slips through as equal
    from ncsos import groupalg

    spec = AlgebraSpec.cyclic(12)
    out = certify_membership(laplacian(spec, [1, 11]), "augmentation")
    assert out.verdict == "certified" and len(out.certificate.squares) > 2
    data = json.loads(dump(out.certificate))
    init, built = groupalg._Finite.__init__, []

    def counting(self, mult_table):
        built.append(1)
        init(self, mult_table)

    monkeypatch.setattr(groupalg._Finite, "__init__", counting)
    cert = SosCertificate.from_dict(data)
    assert len(built) == 1
    assert all(a.spec is cert.target.spec for _, a in cert.squares)
    assert verify_certificate(cert)
    data["squares"][1]["a"] = dict(reversed(data["squares"][1]["a"].items()))
    SosCertificate.from_dict(data)
    assert len(built) == 2              # the target's parse alone
    for one in (1.0, True):
        data["squares"][2]["a"]["mult_table"][0][1] = one
        with pytest.raises(ValueError, match="multiplication table"):
            SosCertificate.from_dict(data)
    g = AlgebraElement.generator(FREE1, 1)
    out = certify_membership(unit(FREE1) * 2 - g - g.star())
    data = json.loads(dump(out.certificate))
    data["squares"][0]["a"]["hermitian"] = False    # the default, spelled
    cert = SosCertificate.from_dict(data)
    a = cert.squares[0][1]
    assert a.spec == cert.target.spec and a.spec is not cert.target.spec
    assert verify_certificate(cert)


@pytest.mark.parametrize("case", sorted(PINNED_HINTS))
@pytest.mark.parametrize("field", ["re", "im", "w"])
def test_tampered_certificate_fails_verification(case, field):
    b, mode, hint, _ = PINNED_HINTS[case]
    d = round_and_project(assembly(b, mode), b,
                          np.array(hint, dtype=complex)).to_dict()
    square = d["squares"][1]
    spot = square if field == "w" else square["a"]["terms"][0]
    spot[field] = str(F(spot[field]) + F(1, 10 ** 9))
    assert not verify_certificate(SosCertificate.from_dict(d))


def test_verify_certificate_needs_no_qc_product(monkeypatch):
    z2 = AlgebraSpec.cyclic(2)
    b, mode, hint, _ = PINNED_HINTS["z5-augmentation"]
    certs = [certify_membership(unit(z2) * 3 + gen(z2, 1)).certificate,
             round_and_project(assembly(b, mode), b,
                               np.array(hint, dtype=complex))]
    assert [c.mode for c in certs] == ["full", "augmentation"]

    def no_product(self, other):
        raise AssertionError("QC product")

    monkeypatch.setattr(QC, "__mul__", no_product)
    with pytest.raises(AssertionError):
        QC(2) * QC(3)
    for cert in certs:
        assert verify_certificate(cert)


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


def test_laplacian_bound_checks_the_decomposition_exactly(monkeypatch):
    fox = soscone.fox_decomposition

    def drop_one(a):
        beta, leftover = fox(a)
        beta.pop(next(iter(beta)))
        return beta, leftover

    monkeypatch.setattr(soscone, "fox_decomposition", drop_one)
    ca, cb = c_of(FREE2, (1,)), c_of(FREE2, (2,))
    with pytest.raises(RuntimeError, match="does not sum to the target"):
        laplacian_bound(ca.star() * cb + cb.star() * ca, GENS2)


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
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(3), [1, 2]) == \
        (3, 3, True)


def test_kazhdan_z2_exact():
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(2), [1]) == (2, 2, True)


def test_kazhdan_z4_and_z6_integer_spectra():
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(4), [1, 3]) == \
        (2, 2, True)
    assert kazhdan_constant_finite(AlgebraSpec.cyclic(6), [1, 5]) == \
        (1, 1, True)


def test_kazhdan_z5_certified_enclosure():
    lo, hi, exact = kazhdan_constant_finite(AlgebraSpec.cyclic(5), [1, 4])
    truth = 2 - 2 * math.cos(2 * math.pi / 5)
    assert not exact
    assert hi - lo <= F(1, 2 ** 30)
    assert float(lo) - 1e-12 <= truth <= float(hi) + 1e-12


def test_kazhdan_trivial_group_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(1), [])


def test_kazhdan_non_generating_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(4), [2])


def test_kazhdan_identity_in_s_rejected():
    with pytest.raises(ValueError):
        kazhdan_constant_finite(AlgebraSpec.cyclic(3), [0, 1, 2])


# Fraction reference for the integer Sturm search: the chain by exact
# division over the rationals, signs by Horner at x
def _ref_eval(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_sturm_chain(p):
    chain = [[F(c) for c in p], [F(i * c) for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        num, den = list(chain[-2]), chain[-1]
        for k in range(len(num) - len(den), -1, -1):
            c = num[k + len(den) - 1] / den[-1]
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
        while num and not num[-1]:
            num.pop()
        if not num:
            break
        chain.append([-c for c in num])
    return chain


def _ref_sign_changes(chain, x):
    signs = [v > 0 for v in (_ref_eval(p, x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_integer_sign_count_matches_fraction_evaluation():
    rng = random.Random(20)
    for _ in range(300):
        points = [(rng.randint(-40, 40), 2 ** rng.randint(0, 6))
                  for _ in range(4)]
        # sparse terms give degree gaps in the chain, where the sign of a
        # pseudo-remainder depends on the parity of its elimination steps
        p = [rng.choice([0, 0, rng.randint(-9, 9)])
             for _ in range(rng.randint(1, 6))] + [rng.choice([-3, -1, 1, 2])]
        roots = rng.sample(points, rng.randint(0, 3))
        if roots and rng.random() < 0.3:
            roots.append(roots[0])             # a double root
        for a, q in roots:
            p = _poly_mul(p, [-a, q])          # a root exactly at a/q
        chain = [[rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
                 for _ in range(4)]
        for a, q in points + [(0, 1)]:
            x = F(a, q)
            v, ref = soscone._hom_eval(p, a, q), _ref_eval(p, x)
            assert (v > 0, v < 0) == (ref > 0, ref < 0)
            assert soscone._sign_variations(chain, a, q) == \
                _ref_sign_changes(chain, x)
            assert soscone._sign_variations(soscone._sturm_chain(p), a, q) \
                == _ref_sign_changes(_ref_sturm_chain(p), x)


def _rotation(n):
    return tuple((i + 1) % n for i in range(n))


def _reflection(n):
    return tuple(-i % n for i in range(n))


def _perm_case(group_gens, perms):
    """Group generated by permutation tuples (identity at index 0) and the
    symmetric set of the indices of perms and their inverses."""
    e = tuple(range(len(group_gens[0])))
    elems, index = [e], {e: 0}
    for p in elems:                    # elems grows while it is scanned
        for g in group_gens:
            h = tuple(p[x] for x in g)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    table = [[index[tuple(a[x] for x in b)] for b in elems] for a in elems]
    inverses = [tuple(sorted(range(len(p)), key=p.__getitem__))
                for p in perms]
    return (AlgebraSpec.finite(table),
            sorted({index[p] for p in list(perms) + inverses}))


def _cyclic(n, *steps):
    return AlgebraSpec.cyclic(n), sorted({k % n for s in steps
                                         for k in (s, -s)})


_S4 = [(1, 0, 2, 3), _rotation(4)]
_SWAPS4 = [tuple(j if k == i else i if k == j else k for k in range(4))
           for i in range(4) for j in range(i + 1, 4)]
_D6 = [_rotation(3), _reflection(3)]
_D24 = [_rotation(12), _reflection(12)]
_A5 = [(1, 2, 0, 3, 4), _rotation(5)]
_S5 = [(1, 0, 2, 3, 4), _rotation(5)]


def _approx(lo, hi):
    return F(*lo), F(*hi), False


# (lo, hi, exact) or the error message, as computed by the earlier
# implementation (dense characteristic polynomial and divisor search;
# A5 and S5 by Krylov steps with a full Hankel solve each)
@pytest.mark.parametrize("case, expected", [
    pytest.param(_cyclic(6, 1), (F(1), F(1), True), id="Z6"),
    pytest.param(_cyclic(7, 1), _approx((808549493, 2 ** 30),
                                        (404274747, 2 ** 29)), id="Z7"),
    pytest.param(_cyclic(8, 1), _approx((314491699, 2 ** 29),
                                        (628983399, 2 ** 30)), id="Z8"),
    pytest.param(_cyclic(9, 1), _approx((125603933, 2 ** 28),
                                        (502415733, 2 ** 30)), id="Z9"),
    pytest.param(_cyclic(10, 1), _approx((410132881, 2 ** 30),
                                         (205066441, 2 ** 29)), id="Z10"),
    pytest.param(_cyclic(11, 1), _approx((170452721, 2 ** 29),
                                         (340905443, 2 ** 30)), id="Z11"),
    pytest.param(_cyclic(12, 1), _approx((143854127, 2 ** 29),
                                         (287708255, 2 ** 30)), id="Z12"),
    pytest.param(_cyclic(13, 1), _approx((245981311, 2 ** 30),
                                         (1921729, 2 ** 23)), id="Z13"),
    pytest.param(_cyclic(14, 1), _approx((26583467, 2 ** 27),
                                         (212667737, 2 ** 30)), id="Z14"),
    pytest.param(_cyclic(15, 1), _approx((46414929, 2 ** 28),
                                         (185659717, 2 ** 30)), id="Z15"),
    pytest.param(_cyclic(16, 1), _approx((163467459, 2 ** 30),
                                         (40866865, 2 ** 28)), id="Z16"),
    pytest.param(_cyclic(17, 1), _approx((145014783, 2 ** 30),
                                         (8851, 2 ** 16)), id="Z17"),
    pytest.param(_cyclic(18, 1), _approx((64754555, 2 ** 29),
                                         (129509111, 2 ** 30)), id="Z18"),
    pytest.param(_cyclic(19, 1), _approx((116356587, 2 ** 30),
                                         (29089147, 2 ** 28)), id="Z19"),
    pytest.param(_cyclic(20, 1), _approx((52552665, 2 ** 29),
                                         (105105331, 2 ** 30)), id="Z20"),
    pytest.param(_cyclic(21, 1), _approx((95406673, 2 ** 30),
                                         (47703337, 2 ** 29)), id="Z21"),
    pytest.param(_cyclic(22, 1), _approx((5436761, 2 ** 26),
                                         (86988177, 2 ** 30)), id="Z22"),
    pytest.param(_cyclic(23, 1), _approx((79634519, 2 ** 30),
                                         (9954315, 2 ** 27)), id="Z23"),
    pytest.param(_cyclic(24, 1), _approx((36586865, 2 ** 29),
                                         (73173731, 2 ** 30)), id="Z24"),
    pytest.param(_cyclic(10, 1, 2), _approx((1894007587, 2 ** 30),
                                            (473501897, 2 ** 28)),
                 id="Z10-pm1pm2"),
    pytest.param(_cyclic(12, 1, 2), _approx((680725039, 2 ** 29),
                                            (1361450079, 2 ** 30)),
                 id="Z12-pm1pm2"),
    pytest.param(_perm_case(_D6, _D6), (F(2), F(2), True), id="D6"),
    pytest.param(_perm_case(_D24, _D24),
                 _approx((575416509, 2 ** 31), (1150833021, 2 ** 32)),
                 id="D24"),
    pytest.param(_perm_case(_S4, _S4),
                 _approx((1257966795, 2 ** 31), (2515933593, 2 ** 32)),
                 id="S4-transposition-4cycle"),
    pytest.param(_perm_case(_S4, [(1, 0, 2, 3), (0, 2, 1, 3),
                                  (0, 1, 3, 2)]),
                 _approx((1257966795, 2 ** 31), (2515933593, 2 ** 32)),
                 id="S4-adjacent-transpositions"),
    pytest.param(_perm_case(_A5, _A5),
                 _approx((722422983, 2 ** 30), (90302873, 2 ** 27)),
                 id="A5"),
    pytest.param(_perm_case(_S5, _S5),
                 _approx((1248652821, 2 ** 32), (156081603, 2 ** 29)),
                 id="S5"),
    pytest.param(_perm_case(_S4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
                 "S does not generate: invariant subspace has dimension 6",
                 id="S4-klein"),
    pytest.param(_perm_case(_S4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
                 "S does not generate: invariant subspace has dimension 2",
                 id="S4-3cycles"),
])
def test_kazhdan_matches_recorded_values(monkeypatch, case, expected):
    from ncsos import exactla

    def no_dense_solve(A, b):
        raise AssertionError("dense Hankel solve")

    # the Hankel system is factored one column per Krylov step, never solved
    monkeypatch.setattr(exactla, "solve_linear", no_dense_solve)
    spec, S = case
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            kazhdan_constant_finite(spec, S)
    else:
        assert kazhdan_constant_finite(spec, S) == expected


@pytest.mark.parametrize("perms", [_A5, _S5], ids=["A5", "S5"])
def test_kazhdan_enclosure_contains_eigvalsh_gap(perms):
    spec, S = _perm_case(perms, perms)
    lo, hi, _ = kazhdan_constant_finite(spec, S)
    M = np.zeros((spec.order, spec.order))
    for v in range(spec.order):
        M[v, v] = len(S)
        for s in S:
            M[spec.word_mul(s, v), v] -= 1
    eig = np.linalg.eigvalsh(M)
    gap = eig[eig > 1e-9].min()
    assert hi - lo <= F(1, 2 ** 30)
    assert float(lo) - 1e-12 <= gap <= float(hi) + 1e-12


def test_s4_gap_target_certifies_with_short_numbers(no_sdp):
    # Delta^2 - (29/100) Delta on S4, about half the spectral gap 2 - sqrt 2:
    # per-entry best approximations gave a 2.9 MB certificate whose
    # largest integer had 24,687 digits; on the 1/den grid it stays short
    spec, S = _perm_case(_S4, _S4)
    delta = laplacian(spec, S)
    out = certify_membership(delta * delta - delta * F(29, 100),
                             mode="augmentation")
    assert out.verdict == "certified"
    assert verify_certificate(out.certificate)
    assert max_digits(out.certificate.rationals()) < 1000
    assert verify_certificate(reread(out.certificate))


# ---------------------------------------------------------------------------
# finite groups in the regular representation
# ---------------------------------------------------------------------------

def _gap_target(spec, S, lam):
    delta = laplacian(spec, S)
    return delta * delta - delta * lam


@pytest.mark.parametrize("case, gap", [
    pytest.param(_cyclic(6, 1), F(1), id="Z6"),
    pytest.param(_perm_case(_D6, _D6), F(2), id="D6"),
])
def test_targets_at_a_rational_gap_certify_on_the_boundary(case, gap,
                                                           no_sdp):
    # Delta^2 - gap * Delta vanishes on the eigenvectors of the gap, so it
    # sits on the cone's boundary, where a rounded SDP hint fails LDL*
    spec, S = case
    out = certify_membership(_gap_target(spec, S, gap), mode="augmentation")
    assert out.verdict == "certified"
    assert out.diagnostics["gram_hint"] == "exact"
    assert verify_certificate(reread(out.certificate))


def test_a_tampered_closed_form_misses_the_slice(monkeypatch, no_sdp):
    # the closed-form Gram matrix is checked against the constraint slice
    # by a raise, which python -O keeps: products shifted by one element
    # put b(g* h g1) where b(g* h) belongs
    z6 = AlgebraSpec.cyclic(6)
    g = gen(z6, 1)
    b = unit(z6) * 3 - g - g.star()
    asm = GramAssembly(z6, gram_basis(b, "full"), "full")
    assert soscone._regular_gram(asm, b) is not None
    mul = z6.word_mul
    monkeypatch.setattr(z6, "word_mul", lambda u, v: mul(mul(u, v), 1))
    with pytest.raises(RuntimeError, match="misses the slice"):
        soscone._regular_gram(asm, b)


@pytest.mark.parametrize("perms", [_S4, _A5, _S5], ids=["S4", "A5", "S5"])
def test_gap_targets_match_the_kazhdan_oracle(tmp_path, capsys, perms,
                                              no_sdp):
    # certified at half the gap, refuted at 1.1 times it, and ncsos verify
    # accepts both artifacts; the witness comes from a rounded eigenvector
    from ncsos import cli
    from ncsos.groupalg import element_to_json

    spec, S = _perm_case(perms, perms)
    lo, hi, _ = kazhdan_constant_finite(spec, S)
    path = tmp_path / "b.json"
    for lam, code in ((F(math.floor(50 * lo), 100), 0),
                      (F(math.ceil(110 * hi), 100), 3)):
        path.write_text(element_to_json(_gap_target(spec, S, lam)),
                        encoding="utf-8")
        assert cli.main(["sos", str(path), "--mode", "augmentation"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["gram_hint"] == "exact"
        assert "sdp_margin" not in report["diagnostics"]
        if code == 3:
            assert report["diagnostics"]["max_digits"] < 10
        assert cli.main(["verify", report["artifact"]]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# golden digests of closed-form artifacts
# ---------------------------------------------------------------------------

GOLDEN_ARTIFACTS = Path(__file__).parent / "golden" / \
    "sos_exact_artifacts.json"


def _coprime_steps(m):
    return [k for k in range(1, m // 2 + 1) if math.gcd(k, m) == 1]


def _cyclic_ideal_target(m, k, z):
    """Delta + c b on Z/m with b = -2 Re z + z g^k + conj(z) g^-k and
    c = 1/ceil(20/gap), the sos-certify benchmark's denominators."""
    c = F(1, math.ceil(20 / (2 - 2 * math.cos(2 * math.pi / m))))
    return AlgebraElement(AlgebraSpec.cyclic(m), {
        0: 2 - 2 * z.re * c, k: z * c - 1, m - k: z.conjugate() * c - 1})


def _cyclic_refute_target(m, k, z, share):
    """c0 + z g^k + conj(z) g^-k on Z/m, c0 a share of the largest
    -2 Re(z w) over m-th roots of unity w, as sos-refute draws it."""
    low = min(2 * (float(z.re) * math.cos(2 * math.pi * j * k / m)
                   - float(z.im) * math.sin(2 * math.pi * j * k / m))
              for j in range(m))
    c0 = F(-low * share / 4).limit_denominator(64)
    return AlgebraElement(AlgebraSpec.cyclic(m),
                          {0: c0, k: z, m - k: z.conjugate()})


@functools.lru_cache(maxsize=1)
def _golden_cases():
    """name -> (family, target, mode, verdict), every one decided in the
    regular representation, so no artifact depends on BLAS."""
    cases, zs = {}, (QC(F(3, 5), F(4, 5)), QC(F(-4, 5), F(3, 5)))
    for m in range(3, 13):
        for k in _coprime_steps(m):
            for n, z in enumerate(zs):
                cases[f"z{m}-ideal-k{k}-z{n}"] = (
                    "cyclic-ideal", _cyclic_ideal_target(m, k, z),
                    "augmentation", "certified")
    for m in range(6, 13):
        for k in _coprime_steps(m):
            for share in (1, 3):
                cases[f"z{m}-refute-k{k}-s{share}"] = (
                    "cyclic-refute", _cyclic_refute_target(m, k, zs[0], share),
                    "full", "refuted")
    spec, S = _perm_case(_S4, _S4)
    lo, hi, _ = kazhdan_constant_finite(spec, S)
    cases["s4-half-gap"] = ("s4-gap", _gap_target(
        spec, S, F(math.floor(50 * lo), 100)), "augmentation", "certified")
    cases["s4-above-gap"] = ("s4-gap", _gap_target(
        spec, S, F(math.ceil(110 * hi), 100)), "augmentation", "refuted")
    cases["d6-at-gap"] = ("d6-gap", _gap_target(*_perm_case(_D6, _D6), F(2)),
                          "augmentation", "certified")
    return cases


def _golden_digests(family):
    """name -> sha256 of the compact JSON that ``ncsos sos`` writes."""
    out = {}
    for name, (fam, b, mode, verdict) in _golden_cases().items():
        if fam == family:
            got = certify_membership(b, mode)
            assert got.verdict == verdict, name
            artifact = got.certificate or got.witness
            out[name] = hashlib.sha256(
                json.dumps(artifact.to_dict()).encode()).hexdigest()
    return out


@pytest.mark.parametrize("family", ["cyclic-ideal", "cyclic-refute",
                                    "s4-gap", "d6-gap"])
def test_closed_form_artifacts_match_golden_digests(family, no_sdp):
    golden = json.loads(GOLDEN_ARTIFACTS.read_text(encoding="utf-8"))
    expect = {k: v for k, v in golden.items()
              if _golden_cases()[k][0] == family}
    assert expect and _golden_digests(family) == expect


# sha256 of the compact JSON witness of each refutation below when the
# eigenvector proposals fail, so the witness comes from the exact vector;
# recorded while that vector still came from a second elimination
EXACT_VECTOR_DIGESTS = {
    "s4-above-gap":
        "5fc7ada7e02c2f1e1a6d083006a3df4a5f3ea176bf7e89a20cbda0372b29e123",
    "d6-above-gap":
        "aad5c4f80e05c6ab7536ab8b287b1a0dc37d7a3157ad2837304d68c606220cc9",
    "z6-above-gap":
        "b54d8c3a27015944072187c30aca366666aab3b788bd7ed66b7155910c3f0a8e",
    "z6-zero-diagonal":
        "90c6e19e5f1d1983f936827778ff5de20092de465cdd07d4a790387566c15e4c",
    "z6-refute-k1-s1":
        "754f6ebc57ea8ff88f84a07d20f47f3c4b34358fab29e4ac078428985ea77528",
    "z6-refute-k1-s3":
        "7894320d91900f8aac185233b599c04228586c8915d6bf112dfb68f59d7be7f4",
}


def _exact_vector_case(name):
    """(target, mode) of a refutation of EXACT_VECTOR_DIGESTS."""
    g = gen(AlgebraSpec.cyclic(6), 1)
    return {
        "s4-above-gap": _golden_cases()["s4-above-gap"][1:3],
        "d6-above-gap": (_gap_target(*_perm_case(_D6, _D6), F(3)),
                         "augmentation"),
        "z6-above-gap": (_gap_target(*_cyclic(6, 1), F(3, 2)),
                         "augmentation"),
        "z6-zero-diagonal": (g + g.star(), "full"),     # zero pivot 0
        "z6-refute-k1-s1": _golden_cases()["z6-refute-k1-s1"][1:3],
        "z6-refute-k1-s3": _golden_cases()["z6-refute-k1-s3"][1:3],
    }[name]


@pytest.mark.parametrize("name", sorted(EXACT_VECTOR_DIGESTS))
def test_exact_vector_refutations_match_recorded_digests(name, monkeypatch,
                                                         no_sdp):
    # with no eigenvector to round, negative_vector reads the vector off
    # the failed LDL* the decision already ran, at a negative pivot or at
    # a zero pivot with a nonzero entry below it
    from ncsos import exactla

    def no_eigh(*args):
        raise ValueError("no eigenvector")

    negative_vector, fails = exactla.negative_vector, []

    def counted(factor, fail):
        fails.append(fail)
        return negative_vector(factor, fail)

    monkeypatch.setattr(soscone.np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(exactla, "negative_vector", counted)
    got = certify_membership(*_exact_vector_case(name))
    assert got.verdict == "refuted"
    assert fails == [got.diagnostics["fail_at"]]
    assert (fails[0][1] is not None) == (name == "z6-zero-diagonal")
    assert verify_witness(reread(got.witness))
    assert hashlib.sha256(json.dumps(got.witness.to_dict()).encode()) \
        .hexdigest() == EXACT_VECTOR_DIGESTS[name]


@pytest.mark.parametrize("group", ["free2", "S4"])
def test_delta_shift_builds_no_dual_witness(monkeypatch, request, group):
    # the bisection asks for the primal side only: a failed step builds
    # neither an SDP dual witness nor a regular-representation one (nor,
    # on S4, runs the SDP)
    def no_witness(*args):
        raise AssertionError("a dual witness was built")

    monkeypatch.setattr(soscone, "exact_dual_witness", no_witness)
    monkeypatch.setattr(soscone, "_regular_witness", no_witness)
    if group == "free2":                            # criterion 8, both signs
        ca, cb = c_of(FREE2, (1,)), c_of(FREE2, (2,))
        cross = ca.star() * cb + cb.star() * ca
        cases = [(cross, GENS2), (-cross, GENS2)]
    else:                       # -Delta of S4's generators, over all swaps
        request.getfixturevalue("no_sdp")
        spec, T = _perm_case(_S4, _S4)
        cases = [(-laplacian(spec, T), _perm_case(_S4, _SWAPS4)[1])]
    for b, gens in cases:
        C, cert = delta_interior_shift(b, gens)
        assert 0 < C <= laplacian_bound(b, gens)
        assert cert.target == laplacian(b.spec, gens) * C + b
        assert verify_certificate(cert)


def test_nu_table_searches_a_finite_group_to_its_diameter(no_sdp):
    # every element of a finite group has word length 1, so a depth bound
    # from word lengths stops at 4; S = {(0 1), (0 1 2 3)^+-1} reaches
    # some transpositions of S4 only further out
    spec, S = _perm_case(_S4, _S4)
    T = _perm_case(_S4, _SWAPS4)[1]
    delta_T = laplacian(spec, T)
    assert set(nu_table(spec, S, T)) == set(T)
    C, cert = delta_interior_shift(-delta_T, S)
    assert 0 < C <= laplacian_bound(delta_T, S)
    assert cert.target == laplacian(spec, S) * C - delta_T
    assert verify_certificate(cert)
    # a target outside the generated subgroup ends the search when the
    # spheres run out
    with pytest.raises(ValueError, match="not generated"):
        nu_table(spec, _perm_case(_S4, [(1, 0, 2, 3)])[1], S)


def _nu_everywhere(spec, S, depth):
    """nu on every word within distance depth of e over S, by the
    definition: the least 2 (nu(u) + nu(v)) over geodesic splits."""
    dist, nu = {}, {}
    for d, sphere in zip(range(depth + 1), spheres(spec, S)):
        dist.update(dict.fromkeys(sphere, d))
    for w in sorted(dist, key=dist.__getitem__):
        if dist[w] == 1:
            nu[w] = 2
        elif dist[w] > 1:
            splits = ((u, spec.word_mul(spec.word_star(u), w)) for u in dist
                      if 0 < dist[u] < dist[w])
            nu[w] = min(2 * (nu[u] + nu[v]) for u, v in splits
                        if dist.get(v) == dist[w] - dist[u])
    return nu


@pytest.mark.parametrize("case", [
    (FREE2, GENS2, 4),
    (FREE2, [(1,), (-1,), (1, 2), (-2, -1)], 3),
    (AlgebraSpec.free_abelian(2), [(1, 0), (-1, 0), (0, 1), (0, -1)], 4),
    (*_perm_case(_S4, _S4), 6),
], ids=["free2", "free2-odd-S", "free_abelian2", "S4"])
def test_nu_table_weighs_only_what_its_targets_need(case):
    # the weights of the targets alone equal those of the whole ball
    spec, S, depth = case
    full = _nu_everywhere(spec, S, depth)
    targets = sorted(full, key=spec.word_key)
    assert nu_table(spec, S, targets) == full


def test_nu_table_refuses_a_search_or_splits_past_its_limit():
    # a word of length 10 on free(2), as a degree-20 target puts in beta,
    # needs B(10), 118097 words: refused before that sphere is built
    start = time.perf_counter()
    with pytest.raises(OversizeError,
                       match=f"could pass {MAX_NU_WORK} words"):
        nu_table(FREE2, GENS2, [(1,) * 5 + (2,) * 5])
    # a line reaches few words, but a^400 has 79800 splits below it
    with pytest.raises(OversizeError, match="splits"):
        nu_table(FREE1, [(1,), (-1,)], [(1,) * 400])
    assert time.perf_counter() - start < 5.0
    assert nu_table(FREE1, [(1,), (-1,)], [(1,) * 120]) == {
        (1,) * 120: 29696}


def test_free2_delta_squared_rounds_without_the_constraint_gram_system(
        monkeypatch):
    # augmentation mode, r=2: m=160 conditions on a boundary target; the
    # rounding sweep builds no m x m constraint Gram matrix, so the only
    # LDL* that run are the rungs' n=16 ones
    import time

    from ncsos import exactla

    factored = []
    bareiss = exactla._bareiss_ldlt

    def counting(R, I):
        factored.append(len(R))
        return bareiss(R, I)

    def no_dense_solve(A, b):
        raise AssertionError("dense constraint solve")

    def no_constraint_gram(self):
        raise AssertionError("constraint Gram matrix built")

    monkeypatch.setattr(exactla, "_bareiss_ldlt", counting)
    monkeypatch.setattr(exactla, "solve_linear", no_dense_solve)
    monkeypatch.setattr(GramAssembly, "gram_inner", no_constraint_gram)
    delta = laplacian(FREE2, GENS2)
    start = time.perf_counter()
    out = certify_membership(delta * delta, mode="augmentation", radius=2)
    elapsed = time.perf_counter() - start
    assert out.diagnostics["constraints"] == 160
    if out.verdict == "certified":
        assert verify_certificate(out.certificate)
    else:
        assert out.verdict == "undecided"
        assert len(out.diagnostics["projection"]["attempts"]) == \
            len(soscone.DENOMINATOR_LADDER)
    assert set(factored) == {16}
    assert elapsed < 30.0


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
    text = dump(cert)
    back = SosCertificate.from_dict(json.loads(text))
    assert dump(back) == text
    assert back.target == cert.target
    assert back.squares == cert.squares
    assert verify_certificate(back)


def test_certificate_weight_tampering_detected():
    g = gen(FREE1, 1)
    cert = certify_membership(unit(FREE1) * 2 - g - g.star()).certificate
    data = json.loads(dump(cert))
    w = F(data["squares"][0]["w"])
    data["squares"][0]["w"] = str(w + 1)
    assert not verify_certificate(SosCertificate.from_dict(data))


def test_certificate_negative_weight_rejected():
    cert = SosCertificate(target=AlgebraElement(FREE1, {}),
                          squares=[(F(-1), unit(FREE1))], mode="full")
    assert not verify_certificate(cert)


def test_augmentation_certificate_square_outside_ideal_rejected():
    d = laplacian(FREE2, GENS2)
    cert = certify_membership(d, mode="augmentation").certificate
    bad = SosCertificate(target=cert.target,
                         squares=cert.squares + [(F(1), unit(FREE2) * 0 +
                                                  unit(FREE2) - unit(FREE2))],
                         mode=cert.mode)
    # adding a zero square is fine; adding a square with augmentation 1 is not
    bad2 = SosCertificate(target=cert.target + unit(FREE2),
                          squares=cert.squares + [(F(1), unit(FREE2))],
                          mode=cert.mode)
    assert verify_certificate(bad)
    assert not verify_certificate(bad2)
