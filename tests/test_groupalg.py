"""Group-algebra and free *-algebra arithmetic tests.

Expected values fall into three buckets:
  * algebraic identities that hold verbatim (involution laws, c(g)c(h)
    expansion, Laplacian as a half-sum of squares) -- checked on random
    elements with a seeded generator;
  * small hand-computed examples (ball contents, Z/3 arithmetic);
  * certified bounds, checked against an independent float evaluation.
"""

import collections
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from ncsos.groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    ball_size,
    c_of,
    element_from_json,
    element_to_json,
    fox_decomposition,
    l1_norm_bound,
    l1_norm_sq_bound,
    laplacian,
    star_product,
)
from ncsos.qc import QC, rational

F = Fraction


def all_specs():
    return [
        AlgebraSpec.free(2),
        AlgebraSpec.free_abelian(2),
        AlgebraSpec.cyclic(6),
        AlgebraSpec.free_star(2),
        AlgebraSpec.free_star(2, hermitian=True),
    ]


def random_element(spec, rng, nterms=4, radius=2, complex_coeffs=True):
    words = ball(spec, radius)
    terms = {}
    for _ in range(nterms):
        w = words[rng.randrange(len(words))]
        re = F(rng.randint(-4, 4), rng.randint(1, 3))
        im = F(rng.randint(-4, 4), rng.randint(1, 3)) if complex_coeffs else 0
        terms[w] = terms.get(w, QC(0)) + QC(re, im)
    return AlgebraElement(spec, terms)


# ---------------------------------------------------------------------------
# words and normal forms
# ---------------------------------------------------------------------------

def test_rational_refuses_exponents_past_the_digit_limit():
    # mantissa digits plus |exponent| may reach 4300, the int <-> str limit
    assert rational("1e4299") == 10 ** 4299
    assert rational("-1.5E-4298") == F(-15, 10 ** 4299)
    assert rational(" 12.3e2 ") == 1230
    assert rational(F(1, 3)) == F(1, 3) and rational(2) == 2
    for text in ("11e4299", "1e4300", "1e-10000000", "0.5e+4300"):
        with pytest.raises(ValueError, match="4300"):
            rational(text)
    with pytest.raises(ValueError):
        rational("1e" + "9" * 5000)


def test_free_words_reduce():
    spec = AlgebraSpec.free(2)
    a = AlgebraElement.generator(spec, 1)
    b = AlgebraElement.generator(spec, 2)
    ainv = a.star()
    binv = b.star()
    assert (a * b * binv * ainv) == AlgebraElement.unit(spec)
    w = a * b * b * ainv
    assert list(w.terms) == [(1, 2, 2, -1)]
    with pytest.raises(ValueError):
        AlgebraElement(spec, {(1, -1): 1})


def test_free_abelian_commutes():
    spec = AlgebraSpec.free_abelian(3)
    x = AlgebraElement.generator(spec, 1)
    y = AlgebraElement.generator(spec, 3)
    assert x * y == y * x
    assert list((x * y).terms) == [(1, 0, 1)]


def test_finite_table_validation():
    # Z/3 is fine
    AlgebraSpec.cyclic(3)
    # identity must sit at index 0
    with pytest.raises(ValueError):
        AlgebraSpec.finite([[1, 0], [0, 1]])
    # non-associative magma is rejected
    bad = [[0, 1, 2], [1, 2, 2], [2, 0, 1]]
    with pytest.raises(ValueError):
        AlgebraSpec.finite(bad)


def test_finite_table_associativity_is_checked_exactly():
    # Z/24 with two entries of one row swapped: identity and inverses
    # survive, and 178 of the 13824 triples are not associative
    table = [[(i + j) % 24 for j in range(24)] for i in range(24)]
    table[5][7], table[5][11] = table[5][11], table[5][7]
    with pytest.raises(ValueError, match="not associative"):
        AlgebraSpec.finite(table)


def test_finite_arithmetic():
    spec = AlgebraSpec.cyclic(3)
    g = AlgebraElement.from_word(spec, 1)
    assert g * g == AlgebraElement.from_word(spec, 2)
    assert g * g * g == AlgebraElement.unit(spec)
    assert g.star() == AlgebraElement.from_word(spec, 2)


def test_free_star_involution_on_letters():
    spec = AlgebraSpec.free_star(1)
    y = AlgebraElement.from_word(spec, (1,))
    z = AlgebraElement.from_word(spec, (2,))
    assert y.star() == z and z.star() == y
    # y z is fixed by * since (yz)* = z* y* = y z
    assert (y * z).star() == y * z

    herm = AlgebraSpec.free_star(2, hermitian=True)
    z1 = AlgebraElement.from_word(herm, (1,))
    z2 = AlgebraElement.from_word(herm, (2,))
    assert z1.star() == z1
    assert (z1 * z2).star() == z2 * z1


def test_ball_contents():
    spec = AlgebraSpec.free(2)
    b1 = ball(spec, 1)
    assert b1 == [(), (1,), (-1,), (2,), (-2,)]
    assert len(ball(spec, 2)) == 1 + 4 + 4 * 3

    ab = AlgebraSpec.free_abelian(2)
    assert set(ball(ab, 1)) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(ball(ab, 2)) == 13  # centered L1 ball in Z^2

    fin = AlgebraSpec.cyclic(5)
    assert ball(fin, 0) == [0]
    assert ball(fin, 1) == [0, 1, 2, 3, 4]
    assert ball(fin, 3) == [0, 1, 2, 3, 4]

    fs = AlgebraSpec.free_star(1)
    assert len(ball(fs, 2)) == 1 + 2 + 4
    fsh = AlgebraSpec.free_star(2, hermitian=True)
    assert len(ball(fsh, 2)) == 1 + 2 + 4


def test_ball_is_star_closed_and_sorted():
    for spec in all_specs():
        words = ball(spec, 2)
        assert len(set(words)) == len(words)
        keys = [spec.word_key(w) for w in words]
        assert keys == sorted(keys)
        for w in words:
            assert spec.word_star(w) in set(words)


def test_ball_size_counts_the_ball_without_listing_it():
    specs = all_specs() + [AlgebraSpec.free(1), AlgebraSpec.free(3),
                           AlgebraSpec.free_abelian(3),
                           AlgebraSpec.free_star(1)]
    for spec in specs:
        for d in range(5):
            assert ball_size(spec, d) == len(ball(spec, d)), (spec, d)
    assert ball_size(AlgebraSpec.free(2), 10) == 2 * 3 ** 10 - 1
    with pytest.raises(ValueError):
        ball_size(AlgebraSpec.free(2), -1)


# ---------------------------------------------------------------------------
# ring and involution laws (seeded random)
# ---------------------------------------------------------------------------

def test_ring_laws_random():
    rng = random.Random(20240817)
    for spec in all_specs():
        one = AlgebraElement.unit(spec)
        for _ in range(12):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            z = random_element(spec, rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (y + z) * x == y * x + z * x
            assert one * x == x and x * one == x
            assert x - x == AlgebraElement(spec, {})


def test_involution_laws_random():
    rng = random.Random(97)
    for spec in all_specs():
        for _ in range(12):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            assert x.star().star() == x
            assert (x + y).star() == x.star() + y.star()
            assert (x * y).star() == y.star() * x.star()
            s = QC(F(3, 2), F(-1, 3))
            assert (x * s).star() == x.star() * s.conjugate()


def test_star_product_matches_element_product():
    # the integer kernel against AlgebraElement: p* q, p* p (each pair
    # once, also when a word repeats) and an empty side, on every backend
    rng = random.Random(1313)

    def ints(x):
        return [(w, int(c.re), int(c.im)) for w, c in x.terms.items()]

    for spec in all_specs():
        for _ in range(12):
            x, y = (random_element(spec, rng, nterms=5) * 6 for _ in "xy")
            assert all(c.re.denominator == c.im.denominator == 1
                       for z in (x, y) for c in z.terms.values())
            p, q = ints(x), ints(y)
            twice = p + p
            for got, ref in ((star_product(spec, p, q), x.star() * y),
                             (star_product(spec, p, p), x.star() * x),
                             (star_product(spec, twice, twice),
                              x.star() * x * 4),
                             (star_product(spec, p, []), x * 0)):
                assert got == {w: (c.re, c.im) for w, c in ref.terms.items()}
                assert all(type(v) is int for c in got.values() for v in c)


def test_trace_and_augmentation_random():
    rng = random.Random(4242)
    for spec in all_specs():
        for _ in range(10):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            # trace is a trace
            assert (x * y).trace() == (y * x).trace()
            # augmentation is a *-homomorphism to scalars
            assert (x * y).augmentation() == \
                x.augmentation() * y.augmentation()
            assert x.star().augmentation() == x.augmentation().conjugate()
            # trace of x* x: the coefficient l2 norm for groups, where
            # u^{-1} v = e iff u = v; in the free monoid only the identity
            # coefficient survives (no cancellation between words).
            t = (x.star() * x).trace()
            if spec.is_group():
                expect = Fraction(0)
                for c in x.terms.values():
                    expect += c.modulus_sq()
            else:
                expect = x.trace().modulus_sq()
            assert t == QC(expect)
            assert t.im == 0 and t.re >= 0


def test_hermitian_detection():
    spec = AlgebraSpec.free(2)
    a = AlgebraElement.generator(spec, 1)
    assert (a + a.star()).is_hermitian()
    assert not (a + 2 * a.star()).is_hermitian()
    x = a * a.star() + 3
    assert x.is_hermitian()
    rng = random.Random(7)
    for spec in all_specs():
        y = random_element(spec, rng)
        assert (y.star() * y).is_hermitian()


# ---------------------------------------------------------------------------
# augmentation ideal and its square
# ---------------------------------------------------------------------------

def test_c_of_product_identity():
    # c(g)c(h) = c(gh) - c(g) - c(h) in every group backend
    rng = random.Random(11)
    for spec in [AlgebraSpec.free(2), AlgebraSpec.free_abelian(2),
                 AlgebraSpec.cyclic(6)]:
        words = [w for w in ball(spec, 2) if w != spec.identity_word]
        for _ in range(10):
            g = words[rng.randrange(len(words))]
            h = words[rng.randrange(len(words))]
            gh = spec.word_mul(g, h)
            lhs = c_of(spec, g) * c_of(spec, h)
            rhs = c_of(spec, gh) - c_of(spec, g) - c_of(spec, h) \
                if gh != spec.identity_word else \
                -(c_of(spec, g) + c_of(spec, h))
            assert lhs == rhs


def test_laplacian_is_half_sum_of_squares():
    for spec, S in [
        (AlgebraSpec.free(2), [(1,), (-1,), (2,), (-2,)]),
        (AlgebraSpec.free_abelian(2), [(1, 0), (-1, 0), (0, 1), (0, -1)]),
        (AlgebraSpec.cyclic(3), [1, 2]),
    ]:
        delta = laplacian(spec, S)
        half_sum = AlgebraElement(spec, {})
        for s in S:
            cs = c_of(spec, s)
            half_sum = half_sum + cs.star() * cs
        assert half_sum == 2 * delta
        assert delta.is_hermitian()
        assert not delta.augmentation()


def test_laplacian_validation():
    spec = AlgebraSpec.free(2)
    with pytest.raises(ValueError):
        laplacian(spec, [(1,)])          # not inverse-closed
    with pytest.raises(ValueError):
        laplacian(spec, [(), (1,), (-1,)])   # contains identity
    with pytest.raises(ValueError):
        laplacian(spec, [(1,), (1,), (-1,)])  # repeats


def test_augmentation_ideal_membership():
    spec = AlgebraSpec.free(2)
    a = AlgebraElement.generator(spec, 1)
    assert not c_of(spec, (1,)).augmentation()
    assert not (a - a.star()).augmentation()
    assert a.augmentation()
    assert AlgebraElement.unit(spec).augmentation()


def _symmetric4():
    perms = sorted(itertools.permutations(range(4)))    # identity first
    index = {p: i for i, p in enumerate(perms)}
    return AlgebraSpec.finite([[index[tuple(p[x] for x in q)] for q in perms]
                               for p in perms])


def _sum_of_pairs(spec, beta):
    out = AlgebraElement(spec, {})
    for (g, h), coef in beta.items():
        out = out + c_of(spec, g).star() * c_of(spec, h) * coef
    return out


def test_omega_squared_membership():
    spec = AlgebraSpec.free(1)
    ca = c_of(spec, (1,))
    # c(a)* c(a) is a generator of the span
    assert fox_decomposition(ca.star() * ca)[1] == {}
    # c(a) itself is not: omega/omega^2 of Z is infinite cyclic
    assert fox_decomposition(ca)[1] == {(1,): QC(1)}
    # the word Laplacian lives in omega^2
    delta = laplacian(spec, [(1,), (-1,)])
    beta, leftover = fox_decomposition(delta)
    assert not leftover and _sum_of_pairs(spec, beta) == delta


def test_omega_squared_products_random():
    rng = random.Random(555)
    spec = AlgebraSpec.cyclic(4)
    words = [w for w in ball(spec, 1) if w != 0]
    for _ in range(6):
        g = words[rng.randrange(len(words))]
        h = words[rng.randrange(len(words))]
        x = c_of(spec, g) * c_of(spec, h)
        beta, leftover = fox_decomposition(x)
        assert not leftover and _sum_of_pairs(spec, beta) == x
        with pytest.raises(ValueError, match="nonzero augmentation"):
            fox_decomposition(x + 1)


@pytest.mark.parametrize("spec", [
    AlgebraSpec.free(2), AlgebraSpec.free_abelian(2), AlgebraSpec.cyclic(6),
    _symmetric4()], ids=["free2", "free_abelian2", "cyclic6", "S4"])
def test_fox_decomposition_reconstructs_random_ideal_squares(spec):
    rng = random.Random(29)
    words = [w for w in ball(spec, 2) if w != spec.identity_word]
    for trial in range(8):
        b = AlgebraElement(spec, {})
        for _ in range(3):
            g, h = rng.choice(words), rng.choice(words)
            coef = QC(F(rng.randint(-4, 4), rng.randint(1, 3)),
                      F(rng.randint(-4, 4), rng.randint(1, 3)))
            x = c_of(spec, g).star() * c_of(spec, h) * coef
            b = b + (x + x.star() if trial % 2 else x)
        beta, leftover = fox_decomposition(b)
        assert not leftover and _sum_of_pairs(spec, beta) == b
        with pytest.raises(ValueError, match="nonzero augmentation"):
            fox_decomposition(b + 1)
        if not spec.order:
            a = AlgebraElement.generator(spec, 1)
            assert fox_decomposition(b + QC(0, 1) * (a - a.star()))[1] == {
                spec.letter_words()[0]: QC(0, 2)}


def _fox_top_down(a):
    """Fox's middle split written out top-down, each half multiplied out
    letter by letter at every level (quadratic in the word length), with
    the letter pairing of fox_decomposition on free and free abelian
    groups: the oracle for its output."""
    spec = a.spec
    beta, lin = collections.Counter(), collections.Counter()

    def product(letters):
        out = spec.identity_word
        for x in letters:
            out = spec.word_mul(out, x)
        return out

    def split(letters, c):
        if len(letters) == 1:
            lin[letters[0]] += c
            return
        u, v = letters[:len(letters) // 2], letters[len(letters) // 2:]
        beta[spec.word_star(product(u)), product(v)] += c
        split(u, c)
        split(v, c)

    for w, c in a.terms.items():
        if w != spec.identity_word:
            split(spec._letters(w), c)
    leftover = {}
    for s in spec.letter_words():
        rest, mt = lin.pop(s, 0), lin.pop(spec.word_star(s), 0)
        beta[s, s] -= mt
        if rest - mt:
            leftover[s] = rest - mt
    return {k: c for k, c in beta.items() if c}, leftover


@pytest.mark.parametrize("spec", [AlgebraSpec.free(2),
                                  AlgebraSpec.free_abelian(2)],
                         ids=["free2", "free_abelian2"])
def test_fox_decomposition_of_long_words_matches_the_top_down_split(spec):
    rng = random.Random(30)
    letters = spec.letter_words()
    terms = {}
    for length in (997, 1000, 4000):
        w = spec.identity_word          # random letters, none cancelling
        while spec.word_len(w) < length:
            x = spec.word_mul(w, rng.choice(letters))
            if spec.word_len(x) > spec.word_len(w):
                w = x
        z = QC(F(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(-4, 4))
        terms[w] = z
        terms[spec.word_star(w)] = z.conjugate()
    terms[spec.identity_word] = QC(-sum(z.re for z in terms.values()))
    b = AlgebraElement(spec, terms)
    assert not b.augmentation()
    assert fox_decomposition(b) == _fox_top_down(b)


def test_fox_decomposition_leaves_the_class_in_i_mod_i_squared():
    # i(a - A) on free(2): m_a - m_A = 2i, and nothing is left at b
    spec = AlgebraSpec.free(2)
    a = AlgebraElement.generator(spec, 1)
    b = QC(0, 1) * (a - a.star())
    beta, leftover = fox_decomposition(b)
    assert leftover == {(1,): QC(0, 2)}
    assert _sum_of_pairs(spec, beta) + c_of(spec, (1,)) * QC(0, 2) == b
    # a finite group has I = I^2: c(g) alone decomposes
    spec = AlgebraSpec.cyclic(5)
    beta, leftover = fox_decomposition(c_of(spec, 2))
    assert not leftover and _sum_of_pairs(spec, beta) == c_of(spec, 2)


# ---------------------------------------------------------------------------
# certified l1 bounds
# ---------------------------------------------------------------------------

def test_l1_bound_exact_for_real():
    spec = AlgebraSpec.free(2)
    a = AlgebraElement(spec, {(): F(3), (1,): F(-4)})
    assert l1_norm_bound(a) == 7
    assert l1_norm_sq_bound(a) == 49
    b = AlgebraElement(spec, {(1,): F(1, 3), (2,): F(-1, 6)})
    assert l1_norm_bound(b) == F(1, 2)
    assert l1_norm_sq_bound(b) == F(1, 4)


def test_l1_bound_certified_for_complex():
    rng = random.Random(31337)
    spec = AlgebraSpec.free_star(1)
    for _ in range(25):
        a = random_element(spec, rng, nterms=5)
        exact = sum(math.sqrt(float(c.modulus_sq()))
                    for c in a.terms.values())
        up = l1_norm_bound(a)
        assert float(up) >= exact - 1e-12
        assert float(up) <= exact * (1 + 1e-6) + 1e-12
        sq = l1_norm_sq_bound(a)
        assert float(sq) >= exact * exact - 1e-9
        assert float(sq) <= exact * exact * (1 + 1e-5) + 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_word_strings():
    spec = AlgebraSpec.free(2)
    assert spec.word_to_str((1, -2)) == "aB"
    assert spec.word_from_str("aB") == (1, -2)
    assert spec.word_from_str("") == ()
    assert spec.word_from_str("aA") == ()      # auto-reduces
    ab = AlgebraSpec.free_abelian(2)
    assert ab.word_to_str((2, -1)) == "aaB"
    assert ab.word_from_str("aaB") == (2, -1)
    fs = AlgebraSpec.free_star(1)
    assert fs.word_to_str((1, 2)) == "aA"
    assert fs.word_from_str("aA") == (1, 2)
    fin = AlgebraSpec.cyclic(4)
    assert fin.word_to_str(3) == "3"
    assert fin.word_from_str("3") == 3
    for spec in all_specs():
        for w in ball(spec, 2):
            assert spec.word_from_str(spec.word_to_str(w)) == w, (spec, w)


def test_json_roundtrip_all_backends():
    rng = random.Random(606)
    for spec in all_specs():
        for _ in range(5):
            a = random_element(spec, rng)
            b = element_from_json(element_to_json(a))
            assert b == a
            assert b.spec == a.spec


@pytest.mark.parametrize("spec, words, bad", [
    (AlgebraSpec.free(2), ("aB", "b", "A"), "c"),
    (AlgebraSpec.cyclic(4), ("1", "2", "3"), "4"),
], ids=["free2", "z4"])
def test_json_terms_merge_repeated_words(spec, words, bad):
    # repeated words add up; a word whose coefficients cancel, or that
    # comes with zero, leaves no term; a malformed word is refused
    x, y, z = words
    d = {**spec.to_dict(), "terms": [
        {"word": x, "re": "1/2"}, {"word": y, "re": "1", "im": "2"},
        {"word": x, "re": "-1/2"}, {"word": z, "re": "0"},
        {"word": y, "im": "-1"}]}
    assert element_from_json(json.dumps(d)).terms == {
        spec.word_from_str(y): QC(1, 1)}
    d["terms"].append({"word": bad, "re": "1"})
    with pytest.raises(ValueError):
        element_from_json(json.dumps(d))


def test_json_shape():
    spec = AlgebraSpec.free(2)
    a = AlgebraElement(spec, {(1, -2): QC(F(1, 2), F(-3))})
    d = json.loads(element_to_json(a))
    assert d["backend"] == "free"
    assert d["rank"] == 2
    assert d["terms"] == [{"word": "aB", "re": "1/2", "im": "-3"}]
    fin = AlgebraSpec.cyclic(3)
    g = AlgebraElement.from_word(fin, 2)
    d2 = json.loads(element_to_json(g))
    assert "mult_table" in d2 and d2["terms"][0]["word"] == "2"


def test_mixed_spec_rejected():
    a = AlgebraElement.unit(AlgebraSpec.free(2))
    b = AlgebraElement.unit(AlgebraSpec.free(3))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
