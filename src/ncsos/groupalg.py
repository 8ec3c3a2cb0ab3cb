"""Exact *-algebra arithmetic for four word backends.

Backends
--------
``free(n)``          reduced words in n letters and their inverses
``free_abelian(n)``  exponent vectors (commuting letters)
``finite``           explicit multiplication table, identity at index 0
``free_star(n)``     free monoid words; the involution reverses a word and
                     stars the letters (``y_i* = z_i``; with
                     ``hermitian=True`` there are only ``z_i`` and
                     ``z_i* = z_i``)

Elements are finitely supported maps word -> QC in normal form.  The
involution is ``(sum a_g g)* = sum conj(a_g) g^{-1}`` (word-star for
free_star), trace reads the identity coefficient, augmentation sums all
coefficients.  Nothing here is numeric: every operation is exact.
"""

from __future__ import annotations

import json
import math
import string
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactla
from .qc import BOUND_DENOMINATOR, QC, _frac, _limit_up, abs_upper

FREE = "free"
FREE_ABELIAN = "free_abelian"
FINITE = "finite"
FREE_STAR = "free_star"


class AlgebraSpec:
    """Immutable description of the underlying group / monoid."""

    __slots__ = ("kind", "rank", "hermitian", "mult_table", "inv_table", "order")

    def __init__(self, kind: str, rank: int = 0, hermitian: bool = False,
                 mult_table: Sequence[Sequence[int]] | None = None):
        if kind not in (FREE, FREE_ABELIAN, FINITE, FREE_STAR):
            raise ValueError(f"unknown backend {kind!r}")
        self.kind = kind
        self.hermitian = bool(hermitian)
        if kind == FINITE:
            if mult_table is None:
                raise ValueError("finite backend needs a multiplication table")
            table = tuple(tuple(int(v) for v in row) for row in mult_table)
            m = len(table)
            if any(len(row) != m for row in table):
                raise ValueError("multiplication table must be square")
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
                        raise ValueError(
                            "multiplication table is not associative")
            self.mult_table = table
            self.inv_table = tuple(inv)
            self.order = m
            self.rank = 0
        else:
            if rank < 1 or rank > 26:
                raise ValueError("rank must be between 1 and 26")
            self.rank = rank
            self.mult_table = None
            self.inv_table = None
            self.order = 0
        if hermitian and kind != FREE_STAR:
            raise ValueError("hermitian flag only applies to free_star")

    # constructors -----------------------------------------------------------

    @staticmethod
    def free(n: int) -> "AlgebraSpec":
        return AlgebraSpec(FREE, n)

    @staticmethod
    def free_abelian(n: int) -> "AlgebraSpec":
        return AlgebraSpec(FREE_ABELIAN, n)

    @staticmethod
    def finite(mult_table) -> "AlgebraSpec":
        return AlgebraSpec(FINITE, mult_table=mult_table)

    @staticmethod
    def free_star(n: int, hermitian: bool = False) -> "AlgebraSpec":
        return AlgebraSpec(FREE_STAR, n, hermitian=hermitian)

    @staticmethod
    def cyclic(m: int) -> "AlgebraSpec":
        """Z/m with elements 0..m-1 (handy fixture constructor)."""
        return AlgebraSpec.finite([[(i + j) % m for j in range(m)]
                                   for i in range(m)])

    def is_group(self) -> bool:
        return self.kind != FREE_STAR

    # words -------------------------------------------------------------------

    @property
    def identity_word(self):
        return 0 if self.kind == FINITE else \
            ((0,) * self.rank if self.kind == FREE_ABELIAN else ())

    def validate_word(self, w):
        if self.kind == FINITE:
            if not isinstance(w, int) or not 0 <= w < self.order:
                raise ValueError(f"bad group element index {w!r}")
            return w
        if not isinstance(w, tuple):
            raise ValueError(f"word must be a tuple, got {type(w).__name__}")
        if self.kind == FREE_ABELIAN:
            if len(w) != self.rank or not all(isinstance(e, int) for e in w):
                raise ValueError(f"bad exponent vector {w!r}")
            return w
        if self.kind == FREE:
            for a, b in zip(w, w[1:]):
                if a == -b:
                    raise ValueError(f"word {w!r} is not reduced")
            if not all(isinstance(l, int) and l != 0 and abs(l) <= self.rank
                       for l in w):
                raise ValueError(f"letters out of range in {w!r}")
            return w
        nletters = self.rank if self.hermitian else 2 * self.rank
        if not all(isinstance(l, int) and 1 <= l <= nletters for l in w):
            raise ValueError(f"letters out of range in {w!r}")
        return w

    def word_mul(self, u, v):
        if self.kind == FINITE:
            return self.mult_table[u][v]
        if self.kind == FREE_ABELIAN:
            return tuple(a + b for a, b in zip(u, v))
        if self.kind == FREE:
            u = list(u)
            i = 0
            while u and i < len(v) and u[-1] == -v[i]:
                u.pop()
                i += 1
            return tuple(u) + tuple(v[i:])
        return u + v

    def word_star(self, w):
        if self.kind == FINITE:
            return self.inv_table[w]
        if self.kind == FREE_ABELIAN:
            return tuple(-e for e in w)
        if self.kind == FREE:
            return tuple(-l for l in reversed(w))
        if self.hermitian:
            return tuple(reversed(w))
        n = self.rank
        return tuple(l + n if l <= n else l - n for l in reversed(w))

    def word_len(self, w) -> int:
        if self.kind == FINITE:
            return 0 if w == 0 else 1
        if self.kind == FREE_ABELIAN:
            return sum(abs(e) for e in w)
        return len(w)

    def word_key(self, w):
        """Total deterministic order: by length, then lexicographic code."""
        if self.kind == FINITE:
            return (0 if w == 0 else 1, w)
        if self.kind == FREE_ABELIAN:
            return (self.word_len(w), w)
        return (len(w), tuple(2 * abs(l) - (l > 0) for l in w)) \
            if self.kind == FREE else (len(w), w)

    # rendering ---------------------------------------------------------------

    def word_to_str(self, w) -> str:
        if self.kind == FINITE:
            return str(w)
        if self.kind == FREE_ABELIAN:
            out = []
            for i, e in enumerate(w):
                ch = string.ascii_lowercase[i]
                out.append((ch if e > 0 else ch.upper()) * abs(e))
            return "".join(out)
        if self.kind == FREE:
            return "".join(string.ascii_lowercase[l - 1] if l > 0
                           else string.ascii_uppercase[-l - 1] for l in w)
        n = self.rank
        return "".join(string.ascii_lowercase[l - 1] if l <= n
                       else string.ascii_uppercase[l - n - 1] for l in w)

    def word_from_str(self, s: str):
        if self.kind == FINITE:
            return self.validate_word(int(s))
        letters = []
        for ch in s:
            if ch in string.ascii_lowercase:
                idx = ord(ch) - ord("a") + 1
                letters.append(idx)
            elif ch in string.ascii_uppercase:
                idx = ord(ch) - ord("A") + 1
                letters.append(-idx)
            else:
                raise ValueError(f"bad letter {ch!r} in word {s!r}")
        if self.kind == FREE_ABELIAN:
            vec = [0] * self.rank
            for l in letters:
                vec[abs(l) - 1] += 1 if l > 0 else -1
            return tuple(vec)
        if self.kind == FREE:
            w = ()
            for l in letters:
                w = self.word_mul(w, (l,))
            return self.validate_word(w)
        # free_star: uppercase means starred letter
        out = []
        for l in letters:
            if l > 0:
                out.append(l)
            else:
                if self.hermitian:
                    raise ValueError("hermitian free_star has no starred letters")
                out.append(-l + self.rank)
        return self.validate_word(tuple(out))

    # misc ---------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, AlgebraSpec) and \
            (self.kind, self.rank, self.hermitian, self.mult_table) == \
            (other.kind, other.rank, other.hermitian, other.mult_table)

    def __hash__(self):
        return hash((self.kind, self.rank, self.hermitian, self.mult_table))

    def __repr__(self):
        if self.kind == FINITE:
            return f"AlgebraSpec(finite, order={self.order})"
        herm = ", hermitian" if self.hermitian else ""
        return f"AlgebraSpec({self.kind}({self.rank}){herm})"

    def to_dict(self) -> dict:
        if self.kind == FINITE:
            return {"backend": FINITE,
                    "mult_table": [list(r) for r in self.mult_table]}
        d = {"backend": self.kind, "rank": self.rank}
        if self.kind == FREE_STAR:
            d["hermitian"] = self.hermitian
        return d

    @staticmethod
    def from_dict(d: dict) -> "AlgebraSpec":
        kind = d["backend"]
        if kind == FINITE:
            return AlgebraSpec.finite(d["mult_table"])
        return AlgebraSpec(kind, int(d["rank"]),
                           hermitian=bool(d.get("hermitian", False)))


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
        if spec.kind == FINITE:
            return AlgebraElement(spec, {i: QC(1)})
        if spec.kind == FREE_ABELIAN:
            w = tuple(1 if j == i - 1 else 0 for j in range(spec.rank))
            return AlgebraElement(spec, {w: QC(1)})
        return AlgebraElement(spec, {(i,): QC(1)})

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

    def coeff(self, w) -> QC:
        return self.terms.get(self.spec.validate_word(w), QC(0))

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


def ball(spec: AlgebraSpec, d: int):
    """All normal-form words of length <= d, deterministically ordered.

    finite backend: every non-identity element is a length-1 word, so the
    1-ball is already the whole group.
    """
    if d < 0:
        raise ValueError("radius must be nonnegative")
    if spec.kind == FINITE:
        return [0] if d == 0 else list(range(spec.order))
    out = []
    if spec.kind == FREE_ABELIAN:
        def rec(prefix, remaining):
            if len(prefix) == spec.rank:
                out.append(tuple(prefix))
                return
            for e in range(-remaining, remaining + 1):
                rec(prefix + [e], remaining - abs(e))
        rec([], d)
    elif spec.kind == FREE:
        frontier = [()]
        out.extend(frontier)
        letters = [l for i in range(1, spec.rank + 1) for l in (i, -i)]
        for _ in range(d):
            new = []
            for w in frontier:
                for l in letters:
                    if w and w[-1] == -l:
                        continue
                    new.append(w + (l,))
            out.extend(new)
            frontier = new
    else:
        nletters = spec.rank if spec.hermitian else 2 * spec.rank
        frontier = [()]
        out.extend(frontier)
        for _ in range(d):
            new = [w + (l,) for w in frontier for l in range(1, nletters + 1)]
            out.extend(new)
            frontier = new
    return sorted(out, key=spec.word_key)


def ball_size(spec: AlgebraSpec, d: int) -> int:
    """``len(ball(spec, d))``, counted without listing the words."""
    if d < 0:
        raise ValueError("radius must be nonnegative")
    if spec.kind == FINITE:
        return 1 if d == 0 else spec.order
    k = spec.rank
    if spec.kind == FREE_ABELIAN:
        # choose i nonzero coordinates, their signs, and a composition
        return sum(2 ** i * math.comb(k, i) * math.comb(d, i)
                   for i in range(min(k, d) + 1))
    if spec.kind == FREE:
        # 1 + 2k sum_{j<d} (2k-1)^j reduced words
        return 1 + 2 * d if k == 1 else 1 + k * ((2 * k - 1) ** d - 1) // (k - 1)
    letters = k if spec.hermitian else 2 * k
    return d + 1 if letters == 1 else (letters ** (d + 1) - 1) // (letters - 1)


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


def omega_squared_decomposition(a: AlgebraElement, radius: int | None = None):
    """Exact coefficients beta with a = sum beta_{gh} c(g)* c(h), or None.

    Pairs run over the radius-ball minus the identity; the default radius is
    the longest word in a (so products cover the support).  The RREF
    particular solution makes the answer deterministic.
    """
    spec = a.spec
    if not spec.is_group():
        raise ValueError("omega^2 span needs a group backend")
    if radius is None:
        radius = max(1, a.degree())
    words = [w for w in ball(spec, radius) if w != spec.identity_word]
    pairs = [(g, h) for g in words for h in words]
    cols = []
    support: dict = {}
    col_elems = []
    for g, h in pairs:
        el = c_of(spec, g).star() * c_of(spec, h)
        col_elems.append(el)
        for w in el.terms:
            support.setdefault(w, len(support))
    for w in a.terms:
        support.setdefault(w, len(support))
    nrows = len(support)
    A = [[QC(0)] * len(pairs) for _ in range(nrows)]
    for j, el in enumerate(col_elems):
        for w, c in el.terms.items():
            A[support[w]][j] = c
    b = [QC(0)] * nrows
    for w, c in a.terms.items():
        b[support[w]] = c
    sol = exactla.solve_linear(A, b)
    if sol is None:
        return None
    return {pairs[j]: sol[j] for j in range(len(pairs)) if sol[j]}


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
    spec = AlgebraSpec.from_dict(d)
    terms = {}
    for t in d.get("terms", []):
        w = spec.word_from_str(t["word"])
        c = QC(Fraction(t.get("re", "0")), Fraction(t.get("im", "0")))
        terms[w] = terms.get(w, QC(0)) + c
    return AlgebraElement(spec, terms)


def element_from_json(text: str) -> AlgebraElement:
    return element_from_dict(json.loads(text))
