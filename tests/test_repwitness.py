"""Tests for GNS spaces, dilations and representation witnesses.

Expected values fall into two buckets.  Hand-derivable fixtures (rank-one
moment matrices, character functionals, single-letter targets) were worked
out by hand first: the moment, its factorization, the compressed
generator actions and the final evaluations are all small enough to write
down, and those exact numbers are asserted bit-for-bit.  Pipeline tests
(membership refutations feeding witnesses) assert the documented
guarantees -- drift bounds, unitarity residuals, replay agreement --
rather than inventing magic constants.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from ncsos.cli import main
from ncsos.groupalg import AlgebraElement, AlgebraSpec, ball, laplacian
from ncsos.qc import QC
from ncsos.repwitness import (
    UnitaryRepWitness,
    choi_dilation,
    compressions,
    gns_from_moment,
    refutation_witness,
    replay_witness_value,
    verify_unitary_witness,
)
from ncsos.soscone import (
    CoverageError,
    DualWitness,
    certify_membership,
    verify_witness,
    witness_from_word_values,
)

F1 = AlgebraSpec.free(1)
F2 = AlgebraSpec.free(2)
FS1 = AlgebraSpec.free_star(1, hermitian=True)
C3 = AlgebraSpec.cyclic(3)


def unit(spec):
    return AlgebraElement.unit(spec)


def exponent_sum(w):
    return sum(1 if letter > 0 else -1 for letter in w)


def sign_character_witness(target, radius=2):
    """Functional g -> (-1)^(exponent sum) on free(1), given exactly."""
    vals = {w: QC((-1) ** (exponent_sum(w) % 2)) for w in ball(F1, 2 * radius)}
    return witness_from_word_values(target, vals, basis=ball(F1, radius),
                                    mode="full")


def trivial_character_witness(target, radius=2):
    vals = {w: QC(1) for w in ball(F1, 2 * radius)}
    return witness_from_word_values(target, vals, basis=ball(F1, radius),
                                    mode="full", require_negative=False)


def neg_laplacian_free1():
    return AlgebraElement(F1, {(): QC(-2), (1,): QC(1), (-1,): QC(1)})


def cyclic3_augmentation_witness():
    """Augmentation-mode functional on Z/3: phi(g) = -3/2 off the identity."""
    vals = {0: QC(0), 1: QC(Fraction(-3, 2)), 2: QC(Fraction(-3, 2))}
    return witness_from_word_values(laplacian(C3, [1, 2]), vals, basis=[1, 2],
                                    mode="augmentation",
                                    require_negative=False)


# ---------------------------------------------------------------------------
# inner-product spaces from moment data
# ---------------------------------------------------------------------------

def test_gns_trivial_character_is_one_dimensional():
    wit = trivial_character_witness(unit(F1))
    space = gns_from_moment(wit, 1)
    assert space.dim == 1
    assert len(space.basis_words) - space.dim == 2
    assert space.state.shape == (1,)
    assert space.state[0] == 1.0 + 0j


def test_gns_coordinates_reproduce_the_moment():
    wit = sign_character_witness(neg_laplacian_free1())
    space = gns_from_moment(wit, 1)
    gram = space.word_coords.conj().T @ space.word_coords
    assert np.abs(gram - space.moment).max() <= 1e-12


def test_gns_nearly_degenerate_moment_takes_the_eigh_frame(monkeypatch):
    # phi(a^k) = r^|k| with r = 1 - 1e-8: the LDL* pivots 1, 1 - r^2,
    # 1 - r^2 are not well separated, so the frame comes from eigh
    import ncsos.repwitness as repwitness

    def exact_frame(*args):
        raise AssertionError("the exact-factor frame was used")

    eigh, calls = np.linalg.eigh, []

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(repwitness, "unit_lower_inverse", exact_frame)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    r = 1 - Fraction(1, 10 ** 8)
    vals = {w: QC(r ** len(w)) for w in ball(F1, 2)}
    wit = witness_from_word_values(unit(F1), vals, basis=ball(F1, 1),
                                   require_negative=False)
    space = gns_from_moment(wit, 1)
    assert calls == [1]
    # every LDL* pivot is positive, so no direction is cut as null
    assert len(space.basis_words) - space.dim == 0
    gram = space.word_coords.conj().T @ space.word_coords
    assert np.abs(gram - space.moment).max() <= 1e-12
    assert abs(np.vdot(space.state, space.state) - 1) <= 1e-12


def test_gns_state_is_a_unit_vector():
    out = certify_membership(2 * unit(F2) - 2 * (
        AlgebraElement.generator(F2, 1) + AlgebraElement.generator(F2, 1).star()),
        mode="full", radius=2)
    assert out.verdict == "refuted"
    space = gns_from_moment(out.witness, 1)
    assert abs(np.vdot(space.state, space.state).real - 1.0) <= 1e-12


def test_gns_haar_functional_on_cyclic_group_gives_identity_frame():
    vals = {0: QC(1), 1: QC(0), 2: QC(0)}
    wit = witness_from_word_values(unit(C3), vals, basis=[0, 1, 2],
                                   mode="full", require_negative=False)
    space = gns_from_moment(wit, 1)
    assert space.dim == 3
    assert np.array_equal(space.frame, np.eye(3))


def test_gns_normalizes_the_identity_value():
    # same functional scaled by 7: the space and state are unchanged
    vals = {w: QC(7 * (-1) ** (exponent_sum(w) % 2)) for w in ball(F1, 4)}
    wit = witness_from_word_values(neg_laplacian_free1(), vals,
                                   basis=ball(F1, 2), mode="full")
    space = gns_from_moment(wit, 1)
    assert space.dim == 1
    assert space.state[0] == 1.0 + 0j
    assert space.word_values[(1,)] == -1.0 + 0j


def test_gns_rejects_augmentation_mode_functionals():
    wit = cyclic3_augmentation_witness()
    with pytest.raises(ValueError, match="full-mode"):
        gns_from_moment(wit, 1)


def test_gns_rejects_zero_identity_value():
    wit = DualWitness(target=unit(F1), mode="full", basis=ball(F1, 1),
                      word_values={w: QC(0) for w in ball(F1, 2)},
                      moment=[], value_at_target=Fraction(0))
    with pytest.raises(ValueError, match="not a state"):
        gns_from_moment(wit, 1)


def test_gns_rejects_non_positive_identity_value():
    vals = {w: QC(-1) for w in ball(F1, 2)}
    wit = DualWitness(target=unit(F1), mode="full", basis=ball(F1, 1),
                      word_values=vals, moment=[], value_at_target=Fraction(0))
    with pytest.raises(ValueError, match="positive real"):
        gns_from_moment(wit, 1)


def test_gns_rejects_moment_that_is_not_psd():
    # |phi(g)| = 2 > phi(e) = 1 violates positivity
    vals = {(): QC(1), (1,): QC(2), (-1,): QC(2),
            (1, 1): QC(0), (-1, -1): QC(0)}
    wit = DualWitness(target=unit(F1), mode="full", basis=ball(F1, 1),
                      word_values=vals, moment=[], value_at_target=Fraction(0))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        gns_from_moment(wit, 1)


def test_gns_rejects_values_without_conjugate_symmetry():
    vals = {(): QC(1), (1,): QC(0, 1), (-1,): QC(0, 1),
            (1, 1): QC(0), (-1, -1): QC(0)}
    wit = DualWitness(target=unit(F1), mode="full", basis=ball(F1, 1),
                      word_values=vals, moment=[], value_at_target=Fraction(0))
    with pytest.raises(ValueError, match="hermitian"):
        gns_from_moment(wit, 1)


def test_gns_radius_beyond_functional_basis_is_an_error():
    wit = sign_character_witness(neg_laplacian_free1())
    with pytest.raises(ValueError, match="does not cover"):
        gns_from_moment(wit, 3)


# ---------------------------------------------------------------------------
# compressed generator actions
# ---------------------------------------------------------------------------

def test_compression_of_trivial_character_is_one():
    wit = trivial_character_witness(unit(F1))
    space = gns_from_moment(wit, 1)
    (M,) = compressions(space)
    assert M.shape == (1, 1)
    assert M[0, 0] == 1.0 + 0j


def test_compression_of_haar_functional_is_zero():
    vals = {w: (QC(1) if w == () else QC(0)) for w in ball(F1, 4)}
    wit = witness_from_word_values(unit(F1), vals, basis=ball(F1, 2),
                                   mode="full", require_negative=False)
    space = gns_from_moment(wit, 0)
    (M,) = compressions(space)
    assert M[0, 0] == 0.0 + 0j


def test_compressions_are_contractions_for_pipeline_functionals():
    a = AlgebraElement.generator(F2, 1)
    out = certify_membership(2 * unit(F2) - 2 * (a + a.star()),
                             mode="full", radius=2)
    space = gns_from_moment(out.witness, 1)
    for M in compressions(space):
        top = np.linalg.svd(M, compute_uv=False).max()
        assert top <= 1.0 + 1e-9


def test_compressions_need_values_one_step_past_the_space():
    wit = sign_character_witness(neg_laplacian_free1(), radius=1)
    space = gns_from_moment(wit, 1)
    with pytest.raises(CoverageError):
        compressions(space)


# ---------------------------------------------------------------------------
# unitary dilations
# ---------------------------------------------------------------------------

def test_dilation_of_zero_is_the_swap():
    U = choi_dilation(np.array([[0.0]]))
    assert np.array_equal(U, np.array([[0, 1], [1, 0]], dtype=complex))


def test_dilation_of_one_is_the_reflection():
    U = choi_dilation(np.array([[1.0]]))
    assert np.array_equal(U, np.array([[1, 0], [0, -1]], dtype=complex))


def test_dilation_of_a_half():
    U = choi_dilation(np.array([[0.5]]))
    c = 0.75 ** 0.5
    assert np.abs(U - np.array([[0.5, c], [c, -0.5]])).max() <= 1e-15


def test_dilation_unitarity_on_random_contractions():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = rng.integers(1, 5)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A /= np.linalg.svd(A, compute_uv=False).max() * (1 + rng.random())
        U = choi_dilation(A)
        assert U.shape == (2 * n, 2 * n)
        assert np.abs(U.conj().T @ U - np.eye(2 * n)).max() <= 1e-12
        assert np.abs(U[:n, :n] - A).max() <= 1e-12


def test_dilation_clamps_rounding_level_excess():
    U = choi_dilation(np.array([[1.0 + 1e-12]]))
    assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-12


def test_dilation_rejects_expansions():
    with pytest.raises(ValueError, match="exceeds 1"):
        choi_dilation(np.array([[1.5]]))


def test_dilation_rejects_non_square_input():
    with pytest.raises(ValueError, match="square"):
        choi_dilation(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# refutation witnesses
# ---------------------------------------------------------------------------

def test_sign_character_refutes_negated_laplacian_exactly():
    # rank-one moment: the compression is the 1x1 matrix [-1], its
    # dilation is diag(-1, 1), and the evaluation is -2 - 1 - 1 = -4
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    assert wit.value == -4.0
    assert np.array_equal(wit.state, np.array([1.0, 0.0], dtype=complex))
    for G in wit.generators:
        assert np.abs(G.conj().T @ G - np.eye(G.shape[0])).max() == 0.0
    assert replay_witness_value(wit) == -4.0
    assert verify_unitary_witness(wit)


def test_hermitian_variable_witness_is_one_dimensional_and_exact():
    # evaluation at z = -1: moment [[1, -1], [-1, 1]] has rank one, the
    # state lives in one dimension and the generator image is [-1]
    z = AlgebraElement.generator(FS1, 1)
    vals = {w: QC((-1) ** len(w)) for w in ball(FS1, 4)}
    phi = witness_from_word_values(z, vals, basis=ball(FS1, 2), mode="full")
    wit = refutation_witness(z, phi)
    assert len(wit.state) == 1
    assert wit.value == -1.0
    assert wit.generators[0][0, 0] == -1.0 + 0j
    assert verify_unitary_witness(wit)


def test_pipeline_refutation_value_tracks_the_functional():
    a = AlgebraElement.generator(F2, 1)
    b = 2 * unit(F2) - 2 * (a + a.star())
    out = certify_membership(b, mode="full", radius=2)
    assert out.verdict == "refuted" and verify_witness(out.witness)
    wit = refutation_witness(b, out.witness)
    ve = out.witness.word_values[F2.identity_word]
    expected = sum((float(cf.re) + 1j * float(cf.im))
                   * complex(out.witness.word_values[w].re / ve.re,
                             out.witness.word_values[w].im / ve.re)
                   for w, cf in b.terms.items())
    assert abs(wit.value - expected.real) <= 1e-6 * abs(expected.real) + 1e-9
    assert wit.value < -1e-3
    assert verify_unitary_witness(wit)


def test_pipeline_witness_generators_are_unitary():
    a, c = AlgebraElement.generator(F2, 1), AlgebraElement.generator(F2, 2)
    b = unit(F2) - a - a.star() + 0 * c
    out = certify_membership(b, mode="full", radius=2)
    assert out.verdict == "refuted"
    wit = refutation_witness(b, out.witness)
    for G in wit.generators:
        assert np.abs(G.conj().T @ G - np.eye(G.shape[0])).max() <= 1e-8
    assert wit.value < -1e-3


def test_refutation_needs_negative_functional_value():
    dl = laplacian(F1, [(1,), (-1,)])
    wit = trivial_character_witness(dl)
    with pytest.raises(ValueError, match="does not refute"):
        refutation_witness(dl, wit)


def test_refutation_rejects_zero_target():
    wit = trivial_character_witness(unit(F1))
    with pytest.raises(ValueError, match="zero"):
        refutation_witness(0 * unit(F1), wit)


def test_refutation_rejects_group_backends_without_free_structure():
    vals = {0: QC(1), 1: QC(1), 2: QC(1)}
    wit = witness_from_word_values(unit(C3), vals, basis=[0, 1, 2],
                                   mode="full", require_negative=False)
    with pytest.raises(ValueError, match="free"):
        refutation_witness(-unit(C3), wit)


# ---------------------------------------------------------------------------
# verification, replay, serialization
# ---------------------------------------------------------------------------

def test_verify_rejects_tampered_value():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    assert verify_unitary_witness(wit)
    wit.value = -3.5
    assert not verify_unitary_witness(wit)


def test_verify_rejects_non_unit_state():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    wit.state = 2.0 * wit.state
    assert not verify_unitary_witness(wit)


def test_verify_rejects_non_unitary_generators_on_group_words():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    wit.generators[0] = 0.5 * wit.generators[0]
    assert not verify_unitary_witness(wit)


def test_verify_rejects_nonnegative_values():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    flipped = UnitaryRepWitness(generators=wit.generators, state=wit.state,
                                value=4.0, target=-b)
    assert replay_witness_value(flipped) == 4.0
    assert not verify_unitary_witness(flipped)


def test_witness_json_roundtrip_is_stable_and_verifiable():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    text = json.dumps(wit.to_dict(), indent=1)
    back = UnitaryRepWitness.from_dict(json.loads(text))
    assert verify_unitary_witness(back)
    assert replay_witness_value(back) == wit.value
    assert json.dumps(back.to_dict(), indent=1) == text


def test_witness_json_serializes_complex_pairs():
    b = neg_laplacian_free1()
    wit = refutation_witness(b, sign_character_witness(b))
    data = json.loads(json.dumps(wit.to_dict(), indent=1))
    assert set(data) == {"generators", "state", "value", "target"}
    assert data["value"] == -4.0
    assert data["state"] == [[1.0, 0.0], [0.0, 0.0]]


# ---------------------------------------------------------------------------
# the bytes ``ncsos sos`` writes for refutations
# ---------------------------------------------------------------------------

def _terms(*terms):
    return [{"word": w, "re": re, "im": im} for w, re, im in terms]


def _free2_deg1(c0, z, w):
    """c0 + z a + conj(z) A + w b + conj(w) B, as sos-refute draws it."""
    (zr, zi), (wr, wi) = z, w
    return {"backend": "free", "rank": 2, "terms": _terms(
        ("", c0, "0"), ("a", zr, zi), ("A", zr, "-" + zi),
        ("b", wr, wi), ("B", wr, "-" + wi))}


# sha256 of each artifact, recorded before dual witnesses kept their
# integers: three unitary witnesses (free(2), dilated), a dual functional
# from the SDP (free_abelian(2)), compressions without dilation
# (hermitian free_star(2)) and a closed-form dual functional (Z/6)
REFUTATION_DIGESTS = {
    "free2-c1": (
        "c214a15a17ecdcbb39f65648a86cfe3f4cbfa1fadcc5985f7293da971d5b8c01",
        _free2_deg1("1", ("3/5", "4/5"), ("5/13", "12/13")), ["--radius", "2"]),
    "free2-c2": (
        "a0900e71fcd3834818588b66d192a92972b369c66368ecc275b0d80be2a914fc",
        _free2_deg1("2", ("8/17", "15/17"), ("-7/25", "24/25")),
        ["--radius", "2"]),
    "free2-c3": (
        "ef56f4c7179298d8fc48a7312200b5f2c460a6fdd60b0a21c3684635e16a7601",
        _free2_deg1("3", ("0", "1"), ("-20/29", "21/29")), ["--radius", "2"]),
    "free_abelian2": (
        "2b39f9fc45be83df47d6f7259a7c4a27744d3c9abc8e4ba2d79459c5be55160f",
        {**_free2_deg1("2", ("3/5", "4/5"), ("5/13", "12/13")),
         "backend": "free_abelian"}, []),
    "free_star2": (
        "9b945f3de112419e4b3afd00a5d9f92ffd98b7f2750158e8a250c5db21e28735",
        {"backend": "free_star", "rank": 2, "hermitian": True,
         "terms": _terms(("", "1", "0"), ("a", "1", "0"), ("b", "1", "0"))},
        []),
    "cyclic6": (
        "b69b069a2091c4b59fc9f27ea980c6a875fa24ef70cd8ad2e999a43ca3795ef9",
        {"backend": "finite",
         "mult_table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
         "terms": _terms(("0", "1", "0"), ("1", "3/5", "4/5"),
                         ("5", "3/5", "-4/5"))}, []),
}


@pytest.mark.parametrize("name", sorted(REFUTATION_DIGESTS))
def test_refutation_artifacts_match_recorded_digests(name, tmp_path, capsys):
    digest, element, extra = REFUTATION_DIGESTS[name]
    src, out = tmp_path / "b.json", tmp_path / "w.json"
    src.write_text(json.dumps(element), encoding="utf-8")
    assert main(["sos", str(src), "--out", str(out)] + extra) == 3
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_free_group_refutation_reads_only_the_witness_integers(monkeypatch):
    # the unitary witness comes from the integers the exact dual check
    # already holds: no QC view of the word values or moment is built
    def unread(self):
        raise AssertionError("a QC view of the dual witness was built")

    monkeypatch.setattr(DualWitness, "word_values", property(unread))
    monkeypatch.setattr(DualWitness, "moment", property(unread))
    a, c = AlgebraElement.generator(F2, 1), AlgebraElement.generator(F2, 2)
    b = 3 * unit(F2) - 2 * (a + a.star()) - (c + c.star())
    out = certify_membership(b, mode="full", radius=2)
    assert out.verdict == "refuted"
    assert verify_unitary_witness(refutation_witness(b, out.witness))
