"""Exact *-algebra arithmetic over four word backends.

Elements are finitely supported maps word -> QC in normal form.  The
involution is ``(sum a_g g)* = sum conj(a_g) g^{-1}`` (word-star for
free_star), trace reads the identity coefficient, augmentation sums all
coefficients.  Nothing here is numeric: every operation is exact.

Each backend is one private subclass of ``AlgebraSpec`` that owns its word
format: validation, product, star, length, order, string and dict forms,
ball sizes and generators.  Other modules ask the spec; the only kind
they test for is FINITE.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import string
from fractions import Fraction
from typing import Iterable, Sequence

from .qc import BOUND_DENOMINATOR, QC, _frac, _limit_up, abs_upper, rational

FREE = "free"
FREE_ABELIAN = "free_abelian"
FINITE = "finite"
FREE_STAR = "free_star"


class AlgebraSpec:
    """Immutable description of the underlying group / monoid.

    Build one with the static constructors or ``from_dict``.  Words of
    length one are ``letter_words()``; ``relation_free`` says that the
    words are free products of the letters, so any choice of generator
    matrices is a representation.
    """

    kind = ""
    rank = 0
    hermitian = False
    order = 0
    mult_table = None
    identity_word = ()
    relation_free = False

    @staticmethod
    def free(n: int) -> "AlgebraSpec":
        return _Free(n)

    @staticmethod
    def free_abelian(n: int) -> "AlgebraSpec":
        return _FreeAbelian(n)

    @staticmethod
    def finite(mult_table) -> "AlgebraSpec":
        return _Finite(mult_table)

    @staticmethod
    def free_star(n: int, hermitian: bool = False) -> "AlgebraSpec":
        return _FreeStar(n, hermitian)

    @staticmethod
    def cyclic(m: int) -> "AlgebraSpec":
        """Z/m with elements 0..m-1 (handy fixture constructor)."""
        return AlgebraSpec.finite([[(i + j) % m for j in range(m)]
                                   for i in range(m)])

    @staticmethod
    def from_dict(d: dict) -> "AlgebraSpec":
        """The spec of a dict form; constructors take fields by name, and
        the first of a backend's ``_fields`` is required."""
        name = d["backend"] if "backend" in d else None
        cls = _BACKENDS.get(name)
        if cls is None:
            raise ValueError(f"field 'backend' must be one of "
                             f"{', '.join(_BACKENDS)}, got {name!r}")
        given = {k: d[k] for k in ("rank", "hermitian", "mult_table")
                 if k in d}
        for k in given:
            if k not in cls._fields:
                raise ValueError(f"{name} backend takes no field {k!r}")
        if cls._fields[0] not in given:
            raise ValueError(f"{name} backend needs field {cls._fields[0]!r}")
        return cls(**given)

    def is_group(self) -> bool:
        return True

    def generators(self):
        return self.letter_words()

    def word_key(self, w):
        """Total deterministic order: by length, then lexicographic code."""
        return (self.word_len(w), w)

    def __eq__(self, other):
        return isinstance(other, AlgebraSpec) and \
            (self.kind, self.rank, self.hermitian, self.mult_table) == \
            (other.kind, other.rank, other.hermitian, other.mult_table)

    def __hash__(self):
        return hash((self.kind, self.rank, self.hermitian, self.mult_table))

    def __repr__(self):
        return (f"AlgebraSpec({self.kind}, rank={self.rank}, "
                f"order={self.order}, hermitian={self.hermitian})")


class _Lettered(AlgebraSpec):
    """Backends with ``rank`` generators spelled ``a..z``, their inverses
    or stars ``A..Z``.  A word's letters are (generator, starred) pairs:
    ``_letter_word`` builds one, ``_spelling`` (``letter``) reads them."""

    _fields = ("rank", "hermitian")

    def __init__(self, rank, hermitian=False):
        if type(rank) is not int or not 1 <= rank <= 26:
            raise ValueError(
                f"rank must be an integer between 1 and 26, got {rank!r}")
        if hermitian is not False:
            raise ValueError("hermitian flag only applies to free_star")
        self.rank = rank

    def to_dict(self) -> dict:
        return {"backend": self.kind, "rank": self.rank}

    def generators(self):
        return [self._letter_word(i, False) for i in range(self.rank)]

    def letter_words(self):
        return [self._letter_word(i, starred)
                for starred in ((False,) if self.hermitian else (False, True))
                for i in range(self.rank)]

    def _spelling(self, w):
        return map(self.letter, w)

    def _letters(self, w):
        return [self._letter_word(i, starred)
                for i, starred in self._spelling(w)]

    def validate_word(self, w):
        if not isinstance(w, tuple) or not self._is_word(w):
            raise ValueError(f"{w!r} is not a normal-form word of {self!r}")
        return w

    def word_len(self, w) -> int:
        return len(w)

    def word_to_str(self, w) -> str:
        return "".join(string.ascii_letters[i + 26 * starred]
                       for i, starred in self._spelling(w))

    def word_from_str(self, s: str):
        w = self.identity_word
        for ch in s:
            k = string.ascii_letters.find(ch)
            if k < 0 or k % 26 >= self.rank:
                raise ValueError(f"bad letter {ch!r} in word {s!r}: rank "
                                 f"{self.rank} has no such letter")
            w = self.word_mul(w, self._letter_word(k % 26, k >= 26))
        return self.validate_word(w)


class _Free(_Lettered):
    """Free group: reduced words of nonzero letters in -rank..rank, where
    -i is the inverse of generator i."""

    kind = FREE
    relation_free = True

    def _letter_word(self, i, starred):
        return (-i - 1 if starred else i + 1,)

    def letter(self, l):
        return abs(l) - 1, l < 0

    def _is_word(self, w):
        return all(isinstance(l, int) and 0 < abs(l) <= self.rank
                   for l in w) and all(a != -b for a, b in zip(w, w[1:]))

    def word_mul(self, u, v):
        u = list(u)
        i = 0
        while u and i < len(v) and u[-1] == -v[i]:
            u.pop()
            i += 1
        return tuple(u) + tuple(v[i:])

    def word_star(self, w):
        return tuple(-l for l in reversed(w))

    def word_key(self, w):
        return (len(w), tuple(2 * abs(l) - (l > 0) for l in w))

    def _ball_size(self, d):
        # 1 + 2k sum_{j<d} (2k-1)^j reduced words
        k = self.rank
        return 1 + 2 * d if k == 1 else 1 + k * ((2 * k - 1) ** d - 1) // (k - 1)


class _FreeAbelian(_Lettered):
    """Free abelian group: exponent vectors of length rank (commuting
    letters), spelled letter by letter in generator order."""

    kind = FREE_ABELIAN

    @property
    def identity_word(self):
        return (0,) * self.rank

    def _letter_word(self, i, starred):
        return tuple((-1 if starred else 1) if j == i else 0
                     for j in range(self.rank))

    def _spelling(self, w):
        return ((i, e < 0) for i, e in enumerate(w) for _ in range(abs(e)))

    def _is_word(self, w):
        return len(w) == self.rank and all(isinstance(e, int) for e in w)

    def word_mul(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def word_star(self, w):
        return tuple(-e for e in w)

    def word_len(self, w) -> int:
        return sum(abs(e) for e in w)

    def _ball_size(self, d):
        # choose i nonzero coordinates, their signs, and a composition
        k = self.rank
        return sum(2 ** i * math.comb(k, i) * math.comb(d, i)
                   for i in range(min(k, d) + 1))


class _FreeStar(_Lettered):
    """Free *-algebra: words in the free monoid on letters 1..2*rank; the
    involution reverses a word and stars its letters (``y_i* = z_i``, the
    letter i + rank).  With ``hermitian`` there are only the letters
    1..rank and ``z_i* = z_i``."""

    kind = FREE_STAR
    relation_free = True

    def __init__(self, rank, hermitian=False):
        if type(hermitian) is not bool:
            raise ValueError(f"hermitian must be a boolean, got {hermitian!r}")
        super().__init__(rank)
        self.hermitian = hermitian

    def to_dict(self) -> dict:
        return {**super().to_dict(), "hermitian": self.hermitian}

    def is_group(self) -> bool:
        return False

    def _letter_word(self, i, starred):
        if starred and self.hermitian:
            raise ValueError("hermitian free_star has no starred letters")
        return (i + 1 + self.rank * starred,)

    def letter(self, l):
        return (l - 1, False) if l <= self.rank else (l - self.rank - 1, True)

    def _is_word(self, w):
        n = self.rank if self.hermitian else 2 * self.rank
        return all(isinstance(l, int) and 1 <= l <= n for l in w)

    def word_mul(self, u, v):
        return u + v

    def word_star(self, w):
        if self.hermitian:
            return tuple(reversed(w))
        n = self.rank
        return tuple(l + n if l <= n else l - n for l in reversed(w))

    def _ball_size(self, d):
        k = len(self.letter_words())
        return d + 1 if k == 1 else (k ** (d + 1) - 1) // (k - 1)


class _Finite(AlgebraSpec):
    """Finite group from an explicit multiplication table: the elements are
    the indices 0..order-1 with the identity at 0, and every other element
    is a word of length one, so the 1-ball is the whole group."""

    kind = FINITE
    identity_word = 0
    _fields = ("mult_table",)

    def __init__(self, mult_table: Sequence[Sequence[int]]):
        table = tuple(tuple(row) for row in mult_table)
        m = len(table)
        if m == 0 or any(len(row) != m or any(type(v) is not int or
                                              not 0 <= v < m for v in row)
                         for row in table):
            raise ValueError("multiplication table must be a nonempty "
                             "square of integers below its order")
        for i in range(m):
            if table[0][i] != i or table[i][0] != i:
                raise ValueError("index 0 must be the identity")
        inv = [None] * m
        for i in range(m):
            for j in range(m):
                if table[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise ValueError("some element has no inverse")
        # Light's associativity test: the elements g with
        # (x g) y == x (g y) for all x, y are closed under products, so
        # checking a generating set checks the whole table
        gens, reached = [], [True] + [False] * (m - 1)
        for a in range(1, m):
            if not reached[a]:
                gens.append(a)
                stack = [x for x in range(m) if reached[x]]
                while stack:
                    x = stack.pop()
                    for g in gens:
                        y = table[x][g]
                        if not reached[y]:
                            reached[y] = True
                            stack.append(y)
        for g in gens:
            for x in range(m):
                xg, row = table[x][g], table[x]
                if any(table[xg][y] != row[gy]
                       for y, gy in enumerate(table[g])):
                    raise ValueError("multiplication table is not associative")
        self.mult_table = table
        self.inv_table = tuple(inv)
        self.order = m

    def to_dict(self) -> dict:
        return {"backend": FINITE,
                "mult_table": [list(r) for r in self.mult_table]}

    def letter_words(self):
        return list(range(1, self.order))

    def validate_word(self, w):
        if not isinstance(w, int) or not 0 <= w < self.order:
            raise ValueError(f"bad group element index {w!r}")
        return w

    def word_mul(self, u, v):
        return self.mult_table[u][v]

    def word_star(self, w):
        return self.inv_table[w]

    def word_len(self, w) -> int:
        return 0 if w == 0 else 1

    def _letters(self, w):
        return [w] if w else []

    def word_to_str(self, w) -> str:
        return str(w)

    def word_from_str(self, s: str):
        return self.validate_word(int(s))

    def _ball_size(self, d):
        return 1 if d == 0 else self.order


_BACKENDS = {cls.kind: cls for cls in (_Free, _FreeAbelian, _Finite, _FreeStar)}


class AlgebraElement:
    """Finitely supported word -> QC map over a fixed spec."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms=None):
        self.spec = spec
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for w, c in items:
                w = spec.validate_word(w)
                c = c if isinstance(c, QC) else QC(_frac(c))
                if c:
                    acc = clean.get(w)
                    s = c if acc is None else acc + c
                    if s:
                        clean[w] = s
                    else:
                        del clean[w]
        self.terms = clean

    # constructors ------------------------------------------------------------

    @staticmethod
    def unit(spec: AlgebraSpec) -> "AlgebraElement":
        return AlgebraElement(spec, {spec.identity_word: QC(1)})

    @staticmethod
    def from_word(spec: AlgebraSpec, w, coeff=1) -> "AlgebraElement":
        return AlgebraElement(spec, {w: coeff})

    @staticmethod
    def generator(spec: AlgebraSpec, i: int) -> "AlgebraElement":
        gens = spec.generators()
        if not 1 <= i <= len(gens):
            raise ValueError(f"generator index {i} is not in 1..{len(gens)}")
        return AlgebraElement(spec, {gens[i - 1]: QC(1)})

    # ring --------------------------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.spec != other.spec:
            raise ValueError("mixed algebra specs")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            other = AlgebraElement(self.spec, {self.spec.identity_word: other})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, QC(0)) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        out = AlgebraElement.__new__(AlgebraElement)
        out.spec, out.terms = self.spec, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = AlgebraElement.__new__(AlgebraElement)
        out.spec = self.spec
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            other = AlgebraElement(self.spec, {self.spec.identity_word: other})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            z = other if isinstance(other, QC) else QC(_frac(other))
            out = AlgebraElement.__new__(AlgebraElement)
            out.spec = self.spec
            out.terms = {w: c * z for w, c in self.terms.items()} if z else {}
            return out
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = self.spec.word_mul(u, v)
                c = cu * cv
                s = terms.get(w)
                s = c if s is None else s + c
                if s:
                    terms[w] = s
                else:
                    terms.pop(w, None)
        out = AlgebraElement.__new__(AlgebraElement)
        out.spec, out.terms = self.spec, terms
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            return self * other
        return NotImplemented

    def star(self) -> "AlgebraElement":
        out = AlgebraElement.__new__(AlgebraElement)
        out.spec = self.spec
        out.terms = {self.spec.word_star(w): c.conjugate()
                     for w, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QC)):
            other = AlgebraElement(self.spec, {self.spec.identity_word: other})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, tuple(sorted(
            ((self.spec.word_key(w), c) for w, c in self.terms.items())))))

    def __bool__(self):
        return bool(self.terms)

    # functionals ---------------------------------------------------------------

    def trace(self) -> QC:
        return self.terms.get(self.spec.identity_word, QC(0))

    def augmentation(self) -> QC:
        tot = QC(0)
        for c in self.terms.values():
            tot = tot + c
        return tot

    def degree(self) -> int:
        return max((self.spec.word_len(w) for w in self.terms), default=0)

    def is_hermitian(self) -> bool:
        for w, c in self.terms.items():
            if self.terms.get(self.spec.word_star(w), QC(0)) != c.conjugate():
                return False
        return True

    def support(self):
        return sorted(self.terms, key=self.spec.word_key)

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for w in self.support():
            c = self.terms[w]
            name = self.spec.word_to_str(w) or "e"
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)*{name}"
                        if c.im else f"{c.re}*{name}")
        return "AlgebraElement(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def star_product(spec: AlgebraSpec, p, q) -> dict:
    """The word -> (re, im) map of p* q for term lists p, q of
    ``(word, re, im)`` with integer coefficients: conj(p_u) q_v lands on
    u* v, from ``word_star`` and ``word_mul`` alone.  Zeros are dropped.
    For p* p the pair (v, u) adds the star of the pair (u, v)'s term."""
    mul, star, acc = spec.word_mul, spec.word_star, {}
    for i, (u, ar, ai) in enumerate(p):
        us = star(u)
        for k, (v, br, bi) in enumerate(p[i:] if p is q else q):
            re, im = ar * br + ai * bi, ar * bi - ai * br
            x, y = acc.get(w := mul(us, v), (0, 0))
            acc[w] = (x + re, y + im)
            if p is q and k:
                x, y = acc.get(w := star(w), (0, 0))
                acc[w] = (x + re, y - im)
    return {w: c for w, c in acc.items() if c[0] or c[1]}


def c_of(spec: AlgebraSpec, w) -> AlgebraElement:
    """g - 1: the canonical augmentation-ideal generator for g."""
    if not spec.is_group():
        raise ValueError("c(g) needs a group backend")
    w = spec.validate_word(w)
    return AlgebraElement(spec, {w: QC(1), spec.identity_word: QC(-1)})


def laplacian(spec: AlgebraSpec, S: Iterable) -> AlgebraElement:
    """|S| - sum(S) for a symmetric generating set avoiding the identity.

    Equals (1/2) sum_{s in S} c(s)* c(s), which the tests verify.
    """
    words = [spec.validate_word(s) for s in S]
    wset = set(words)
    if len(wset) != len(words):
        raise ValueError("S has repeated elements")
    if spec.identity_word in wset:
        raise ValueError("S must not contain the identity")
    for w in wset:
        if spec.word_star(w) not in wset:
            raise ValueError("S must be closed under inverses")
    terms = {spec.identity_word: QC(len(words))}
    for w in words:
        terms[w] = terms.get(w, QC(0)) - 1
    return AlgebraElement(spec, terms)


def spheres(spec: AlgebraSpec, steps):
    """Breadth-first spheres around the identity in the Cayley graph of
    ``steps``: the lists of words at distance 0, 1, 2, ... (right
    multiplication), ending when a sphere is empty."""
    seen = {spec.identity_word}
    sphere = [spec.identity_word]
    while sphere:
        yield sphere
        new = []
        for w in sphere:
            for s in steps:
                v = spec.word_mul(w, s)
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        sphere = new


def ball(spec: AlgebraSpec, d: int):
    """All normal-form words of length <= d, deterministically ordered:
    the first d + 1 spheres over the spec's one-letter words."""
    if d < 0:
        raise ValueError("radius must be nonnegative")
    near = itertools.islice(spheres(spec, spec.letter_words()), d + 1)
    return sorted(itertools.chain.from_iterable(near), key=spec.word_key)


def ball_size(spec: AlgebraSpec, d: int) -> int:
    """``len(ball(spec, d))``, counted without listing the words."""
    if d < 0:
        raise ValueError("radius must be nonnegative")
    return spec._ball_size(d)


def l1_norm_bound(a: AlgebraElement) -> Fraction:
    """Certified rational >= sum_g |a_g| (exact for real coefficients)."""
    total = Fraction(0)
    for c in a.terms.values():
        total += abs_upper(c)
    return total


def l1_norm_sq_bound(a: AlgebraElement) -> Fraction:
    """Certified rational q >= (sum_g |a_g|)^2, exact for real coefficients."""
    total = l1_norm_bound(a)
    return _limit_up(total * total, BOUND_DENOMINATOR)


def fox_decomposition(a: AlgebraElement):
    """Exact (beta, leftover) with a = sum beta_{gh} c(g)* c(h) +
    sum_s leftover_s c(s) for a in the augmentation ideal, by Fox's closed
    form (*Free differential calculus I*, 1953): words split in the middle
    by c(uv) = c(u^-1)* c(v) + c(u) + c(v), letters paired by c(s) +
    c(s^-1) = -c(s)* c(s), and on a finite group the rest paid by
    c(g) = -(1/k) sum_{0<j<k} c(g^-1)* c(g^j), k the order of g.  On free
    and free abelian groups the leftover is a's class in I/I^2: a is in
    I^2 exactly when it is empty.
    """
    spec = a.spec
    if not spec.is_group():
        raise ValueError("omega^2 span needs a group backend")
    if a.augmentation():
        raise ValueError("target has nonzero augmentation, so it is not "
                         "in the ideal-squared span")
    mul, star, e = spec.word_mul, spec.word_star, spec.identity_word
    beta, lin, leftover = collections.Counter(), collections.Counter(), {}

    def split(letters, lo, hi, c):     # returns letters[lo] ... letters[hi-1]
        if hi - lo == 1:
            lin[letters[lo]] += c
            return letters[lo]
        mid = (lo + hi) // 2
        u, v = split(letters, lo, mid, c), split(letters, mid, hi, c)
        beta[star(u), v] += c
        return mul(u, v)

    for w, c in a.terms.items():
        if w != e:
            letters = spec._letters(w)
            split(letters, 0, len(letters), c)
    for s in spec.letter_words():
        t = star(s)
        rest, mt = lin.pop(s, 0), lin.pop(t, 0)
        beta[s, s] -= mt
        rest -= mt
        if rest and spec.order:         # k = 2 gives c(s) = -1/2 c(s)* c(s)
            powers = [s]
            while (p := mul(powers[-1], s)) != e:
                powers.append(p)
            for p in powers:
                beta[t, p] -= rest / (len(powers) + 1)
        elif rest:
            leftover[s] = rest
    return {k: c for k, c in beta.items() if c}, leftover


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def element_to_dict(a: AlgebraElement) -> dict:
    d = a.spec.to_dict()
    d["terms"] = [{"word": a.spec.word_to_str(w),
                   "re": str(c.re), "im": str(c.im)}
                  for w in a.support() for c in (a.terms[w],)]
    return d


def element_to_json(a: AlgebraElement) -> str:
    return json.dumps(element_to_dict(a))


def element_from_dict(d: dict) -> AlgebraElement:
    return _element_over(AlgebraSpec.from_dict(d), d)


def _element_over(spec: AlgebraSpec, d: dict) -> AlgebraElement:
    """The element of the dict form d over its already parsed spec."""
    terms = {}
    for t in d.get("terms", []):
        w = spec.word_from_str(t["word"])
        c = QC(rational(t.get("re", "0")), rational(t.get("im", "0")))
        terms[w] = terms[w] + c if w in terms else c
    return AlgebraElement(spec, terms)


def element_from_json(text: str) -> AlgebraElement:
    return element_from_dict(json.loads(text))
