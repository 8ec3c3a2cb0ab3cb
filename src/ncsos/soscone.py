"""Membership and certification for sums of hermitian squares.

Two cones are handled over every algebra backend:

* ``full`` mode: the cone of sums a_1*a_1 + ... + a_n*a_n with the a_i
  supported on a word ball;
* ``augmentation`` mode (group backends): the same cone built from the
  augmentation-ideal columns c(g) = g - 1, so every combination lands in
  the ideal-squared cone automatically.

The pipeline is hybrid: a Gram hint on sparse integer constraint weights
becomes an exact certificate read off the integer factor of an exact
LDL*, every matrix kept as integers over one denominator.  When the
basis ball is a whole finite group the hint is the Gram matrix of the
regular representation in closed form, exact already, and a failing
LDL* yields a vector state as the witness.  Elsewhere an
interior-point SDP proposes the hint or a separating functional: the
Gram matrix is rounded to the grid (1/den)Z (Peyrl & Parrilo, TCS 2008)
and moved exactly onto the constraint slice by one sweep over the
conditions, longest class first, each correcting only Gram positions
that no later condition reads (no m x m system); a functional is its
constraint coordinates y, rounded and mixed with a reference
functional's, its moment matrix is the conjugate of sum_k y_k A_k and
its value at the target is beta . y.  The PSD decision is the
fraction-free (Bareiss) LDL* of :mod:`ncsos.exactla`, and no verdict
other than ``undecided`` ever rests on floating point.
:func:`certify_membership` is the one path from a target to a
certificate or witness: the epsilon shift and the Laplacian bisection
only change the target they ask it about.  Gram systems above
MAX_CONDITIONS real conditions are refused from the ball sizes, before
any product table is built.
"""

from __future__ import annotations

import functools
import marshal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import exactla, sdp
from .groupalg import (
    FINITE,
    AlgebraElement,
    AlgebraSpec,
    _element_over,
    ball,
    ball_size,
    c_of,
    element_from_dict,
    element_to_dict,
    fox_decomposition,
    l1_norm_bound,
    l1_norm_sq_bound,
    laplacian,
    spheres,
    star_product,
)
from .qc import QC, abs_upper, rational

MODES = ("full", "augmentation")

# rational constant >= 1/sqrt(2) used by the Laplacian domination bound;
# any rational upper bound keeps the inequality valid.
KAPPA = Fraction(884, 1250)

# width of the enclosure of an irrational finite-group spectral gap
KAZHDAN_PRECISION = Fraction(1, 2 ** 30)

DENOMINATOR_LADDER = (10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12)

# SDP margin at or above -TOL counts as numerically inside the cone
TOL = 1e-7

# Largest Gram system accepted: real conditions m, estimated from the word
# ball before anything is built.  The SDP factors a dense (m+1)x(m+1)
# Schur complement (128 MB of float64 at m = 4000) every iteration.
MAX_CONDITIONS = 4000

# Most words searched plus splits listed by nu_table, a few word products
# each: free(2) over its letters fits B(9); a^300 on free(1) has 44850.
MAX_NU_WORK = 50000


class CoverageError(ValueError):
    """Target support not expressible with the chosen basis products."""


class OversizeError(ValueError):
    """The Gram system at this radius is refused before it is built."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class ProjectionError(RuntimeError):
    """Exact rounding failed; carries a margin report."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# certificates and witnesses
# ---------------------------------------------------------------------------

@dataclass
class SosCertificate:
    """Exact identity  sum_i weight_i * (a_i)* a_i  ==  target."""

    target: AlgebraElement
    squares: list                  # list of (Fraction weight > 0, AlgebraElement)
    mode: str = "full"

    def rationals(self):
        """Every rational the certificate carries (weights, coefficients)."""
        yield from (w for w, _ in self.squares)
        for a in [self.target] + [a for _, a in self.squares]:
            yield from a.terms.values()

    def to_dict(self) -> dict:
        # "absorption" keeps the layout that certificates of older releases
        # have, so their bytes do not change; from_dict ignores it
        return {
            "kind": "sos_certificate",
            "mode": self.mode,
            "target": element_to_dict(self.target),
            "squares": [{"w": str(w), "a": element_to_dict(a)}
                        for w, a in self.squares],
            "absorption": {"kind": "exact"},
        }

    @staticmethod
    def from_dict(d: dict) -> "SosCertificate":
        """The certificate of a dict form.  The target's backend is parsed
        once and shared by every square that repeats its fields; a square
        with other fields must parse to the same spec (ValueError)."""
        def fields(e):
            # bytes that keep each value's type, so that neither 1.0 nor
            # true passes for 1; marshal's format 0 writes no object
            # references, so equal fields give equal bytes
            return isinstance(e, dict) and marshal.dumps(sorted(
                (k, v) for k, v in e.items() if k != "terms"), 0)

        target = element_from_dict(d["target"])
        shared, squares = fields(d["target"]), []
        for i, s in enumerate(d["squares"]):
            w, a = rational(s["w"]), s["a"]
            if fields(a) == shared:
                a = _element_over(target.spec, a)
            elif (a := element_from_dict(a)).spec != target.spec:
                raise ValueError(f"square {i} is over another algebra "
                                 "than the target")
            squares.append((w, a))
        return SosCertificate(target, squares, _mode(d.get("mode", "full")))


class DualWitness:
    """Positive functional on the product span with a value at the target.

    ``word_values`` defines the functional: phi(x) = sum_w x_w * phi(w)
    with phi(e) fixed to 0 in augmentation mode.  ``moment`` is the
    matrix [phi of column_u* column_v] over ``basis`` and is exactly PSD.
    For refutations ``value_at_target`` is negative.  Both may be given
    as the exact layer's integers, ``(values, D)`` (:meth:`integer_values`)
    and ``(R, I, scale)``; their QC forms are then built when read.
    """

    def __init__(self, target: AlgebraElement, mode: str, basis: list,
                 word_values, moment, value_at_target: Fraction):
        self.target, self.mode, self.basis = target, mode, basis
        self._values, self._moment = word_values, moment
        self.value_at_target = value_at_target

    @property
    def word_values(self) -> dict:              # word -> QC
        if isinstance(self._values, tuple):
            values, D = self._values
            self._values = {w: QC(Fraction(re, D), Fraction(im, D))
                            for w, (re, im) in values.items()}
        return self._values

    @property
    def moment(self) -> list:                   # n x n lists of QC
        if isinstance(self._moment, tuple):
            self._moment = _gaussian(*self._moment)
        return self._moment

    def integer_values(self):
        """``(values, D)``: phi(w) = (re + i im)/D for values[w] = (re, im)."""
        if isinstance(self._values, tuple):
            return self._values
        ints, D = _integral([x for v in self._values.values()
                             for x in (v.re, v.im)])
        return dict(zip(self._values, zip(ints[::2], ints[1::2]))), D

    @property
    def spec(self) -> AlgebraSpec:
        return self.target.spec

    def value_of(self, x: AlgebraElement) -> QC:
        tot = QC(0)
        for w, cw in x.terms.items():
            v = self.word_values.get(w)
            if v is None:
                if self.mode == "augmentation" and w == self.spec.identity_word:
                    continue
                raise CoverageError(
                    f"functional not defined on word {self.spec.word_to_str(w)!r}")
            tot = tot + cw * v
        return tot

    def rationals(self):
        """Every rational the witness carries (values, moments, target)."""
        yield self.value_at_target
        yield from self.word_values.values()
        for row in self.moment:
            yield from row
        yield from self.target.terms.values()

    def to_dict(self) -> dict:
        spec = self.spec
        return {
            "kind": "dual_witness",
            "mode": self.mode,
            "target": element_to_dict(self.target),
            "basis": [spec.word_to_str(w) for w in self.basis],
            "word_values": {spec.word_to_str(w): [str(v.re), str(v.im)]
                            for w, v in sorted(
                                self.word_values.items(),
                                key=lambda kv: spec.word_key(kv[0]))},
            "moment": [[[str(z.re), str(z.im)] for z in row]
                       for row in self.moment],
            "value_at_target": str(self.value_at_target),
        }

    @staticmethod
    def from_dict(d: dict) -> "DualWitness":
        target = element_from_dict(d["target"])
        spec = target.spec
        return DualWitness(
            target=target,
            mode=_mode(d["mode"]),
            basis=[spec.word_from_str(s) for s in d["basis"]],
            word_values={spec.word_from_str(s): QC(rational(re), rational(im))
                         for s, (re, im) in d["word_values"].items()},
            moment=[[QC(rational(re), rational(im)) for re, im in row]
                    for row in d["moment"]],
            value_at_target=rational(d["value_at_target"]),
        )


# ---------------------------------------------------------------------------
# Gram assembly: basis columns, product classes, constraint matrices
# ---------------------------------------------------------------------------

def _mode(mode) -> str:
    """mode, which must be one of MODES (ValueError)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def default_radius(b: AlgebraElement, mode: str) -> int:
    """ceil(deg/2), and at least 1 in augmentation mode: the smallest
    radius whose basis products cover the support of b."""
    d = -(-b.degree() // 2)
    return max(1, d) if mode == "augmentation" else d


def gram_basis(b: AlgebraElement, mode: str = "full",
               radius: int | None = None):
    """Word ball carrying the Gram matrix for target b.

    full: ball of radius ceil(deg/2); augmentation: the ball of radius
    max(1, ceil(deg/2)) minus the identity, columns read as c(g).  An
    explicit ``radius`` replaces the default one.  Raises OversizeError,
    before listing a word, when the system would exceed MAX_CONDITIONS.
    """
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    return _ball_basis(b, mode, radius)


def _ball_basis(b: AlgebraElement, mode: str, radius: int | None):
    """:func:`gram_basis` for a target whose assembly checks it."""
    _mode(mode)
    spec = b.spec
    if radius is None:
        radius = default_radius(b, mode)
    if mode == "augmentation" and not spec.is_group():
        raise ValueError("augmentation mode needs a group backend")
    _check_size(spec, radius, mode)
    if mode == "augmentation":
        return [w for w in ball(spec, radius) if w != spec.identity_word]
    return ball(spec, radius)


def _check_size(spec: AlgebraSpec, radius: int, mode: str) -> None:
    """Refuse a radius whose Gram system would exceed MAX_CONDITIONS.

    The basis is the radius ball (n words, one fewer in augmentation
    mode) and every product column_i* column_j lies in the 2*radius
    ball, whose words bound the real conditions m.  Ball sizes never
    shrink with the radius and grow by at least one word per step on a
    backend with a generator, so radii beyond MAX_CONDITIONS are
    measured at MAX_CONDITIONS and sizes are capped at 10**18; either
    makes the reported sizes lower bounds.
    """
    r = min(radius, MAX_CONDITIONS)
    m = ball_size(spec, 2 * r)
    if m <= MAX_CONDITIONS:
        return
    cap = 10 ** 18
    n = min(ball_size(spec, r) - (mode == "augmentation"), cap)
    at_least = "" if r == radius and m < cap else "at least "
    m = min(m, cap)
    fits = 0
    while fits + 1 < radius and \
            ball_size(spec, 2 * fits + 2) <= MAX_CONDITIONS:
        fits += 1
    raise OversizeError(
        f"Gram system too large at radius {radius}: estimated from the "
        f"ball sizes, {at_least}n={n} basis words and {at_least}m={m} "
        f"conditions, above the limit of {MAX_CONDITIONS}",
        {"basis_size_estimate": n, "constraints_estimate": m,
         "largest_radius_that_fits": fits or None})


class GramAssembly:
    """Constraint system tying Gram entries to target coefficients.

    One complex linear condition per conjugate word class {w, w*}, split
    into one or two real conditions <A_k, Q> = Re tr(A_k* Q) = beta_k.
    Every product column_i* column_j has integer coefficients (one word,
    or g^-1 h - g^-1 - h + 1 in augmentation mode), so with E[i,j] the
    coefficient of the class representative there, H = (E + E^T)/2 is
    real symmetric and reads only Re Q, and K = i (E^T - E)/2 is
    imaginary antisymmetric and reads only Im Q.  ``entries[k]`` lists
    the nonzero ``(i, j, weight)`` of condition k, the integers of E + E^T
    (H) or E^T - E (K): the matrix is half the weights (H) or i times
    that (K), as ``constraint_class[k]`` says.  In augmentation mode the identity
    class is omitted: it is implied by the others because both sides
    have augmentation zero.
    """

    def __init__(self, spec: AlgebraSpec, basis, mode: str):
        _mode(mode)
        if mode == "augmentation" and not spec.is_group():
            raise ValueError("augmentation mode needs a group backend")
        if not basis:
            raise ValueError("empty Gram basis")
        self.spec = spec
        self.mode = mode
        self.basis = list(basis)
        self.n = len(self.basis)
        e = spec.identity_word

        # column i as (word, re, im) terms: w, or c(w) = w - e
        self.columns = [[(w, 1, 0)] if mode == "full" else
                        [(w, 1, 0), (e, -1, 0)] for w in self.basis]
        products = [[star_product(spec, ci, cj) for cj in self.columns]
                    for ci in self.columns]

        words = {w for row in products for prod in row for w in prod}
        if mode == "augmentation":
            words.discard(e)
        reps = sorted({min(w, spec.word_star(w), key=spec.word_key)
                       for w in words}, key=spec.word_key)
        self.class_reps = reps
        rep_index = {w: k for k, w in enumerate(reps)}
        self.covered_words = words

        # E[p][q] = c at the representative of class k puts c at (p, q) and
        # (q, p) into the doubled weights of H, -c and c into those of K
        HK = [({}, {}) for _ in reps]
        for p in range(self.n):
            for q in range(self.n):
                for w, (c, _) in products[p][q].items():
                    if w in rep_index:
                        H, K = HK[rep_index[w]]
                        H[p, q] = H.get((p, q), 0) + c
                        H[q, p] = H.get((q, p), 0) + c
                        K[p, q] = K.get((p, q), 0) - c
                        K[q, p] = K.get((q, p), 0) + c
        self.entries = []           # per condition: sorted (i, j, weight)
        self.constraint_class = []  # (class index, 'H' | 'K')
        for k, w in enumerate(reps):
            selfconj = spec.word_star(w) == w
            for part, acc in zip("HK", HK[k][:1] if selfconj else HK[k]):
                self.entries.append([(i, j, c) for (i, j), c
                                     in sorted(acc.items()) if c])
                self.constraint_class.append((k, part))
        self.m = len(self.entries)
        self._target = None         # the target :meth:`beta` last listed

    @property
    def A_exact(self):
        """Dense QC matrices, built on demand for the benchmark's traced
        pass (it counts nonzeros); nothing in the package reads them."""
        dense = [[[QC(0)] * self.n for _ in range(self.n)] for _ in self.entries]
        for A, ents, (_, part) in zip(dense, self.entries,
                                      self.constraint_class):
            for i, j, c in ents:
                A[i][j] = QC(Fraction(c, 2)) if part == "H" else \
                    QC(0, Fraction(c, 2))
        return dense

    @functools.cached_property
    def operator(self) -> sdp.SparseConstraints:
        """The conditions as the SDP's float operator, built once."""
        return sdp.SparseConstraints(
            self.entries, [part for _, part in self.constraint_class], self.n)

    # -- target handling -----------------------------------------------------

    def check_coverage(self, b: AlgebraElement):
        if b.spec != self.spec:
            raise ValueError("target algebra does not match assembly")
        if not b.is_hermitian():
            raise ValueError("target must be hermitian")
        e = self.spec.identity_word
        for w in b.terms:
            if w == e and self.mode == "augmentation":
                continue
            if w not in self.covered_words:
                raise CoverageError(
                    "basis does not cover support word "
                    f"{self.spec.word_to_str(w)!r}")
        if self.mode == "augmentation" and b.augmentation():
            raise ValueError("augmentation-mode target must lie in the ideal")

    def beta(self, b: AlgebraElement):
        """Exact real constraint values for target b, checked and listed
        once per target: every stage of a decision reads the same tuple."""
        if self._target is not b:
            self.check_coverage(b)
            self._target, self._beta = b, tuple(
                z.re if part == "H" else -z.im
                for k, part in self.constraint_class
                for z in [b.terms.get(self.class_reps[k], QC(0))])
        return self._beta

    # -- exact evaluation ----------------------------------------------------

    def apply(self, R, I):
        """2 <A_k, Q> for all k, exactly, for Q = R + iI given by its real
        (symmetric) and imaginary (antisymmetric) parts, integers or not."""
        vals = []
        for ents, (_, part) in zip(self.entries, self.constraint_class):
            X = R if part == "H" else I
            vals.append(sum(c * X[i][j] for i, j, c in ents))
        return vals

    def _readers(self) -> dict:
        """Every Gram position (part, i, j) a condition reads, mapped to
        its readers ``[(k, weight)]``, k ascending."""
        at = {}
        conds = zip(self.entries, self.constraint_class)
        for k, (ents, (_, part)) in enumerate(conds):
            for i, j, c in ents:
                at.setdefault((part, i, j), []).append((k, c))
        return at

    def gram_inner(self):
        """Four times the Gram matrix <A_k, A_l> of the constraints (PD), in
        integers, as a sum over the matrix positions the conditions share.
        An H and a K condition are orthogonal: one reads Re Q, the other
        Im Q.  Kept for the benchmark; nothing in the package reads it."""
        G4 = [[0] * self.m for _ in range(self.m)]
        for here in self._readers().values():
            for k, c in here:
                Gk = G4[k]
                for l, d in here:
                    Gk[l] += c * d
        return G4

    @functools.cached_property
    def sweep_plan(self) -> list:
        """The sweep of :func:`round_and_project`, per condition k:
        ``(owned, norm, earlier)``, the ``(i, j, weight)`` of the Gram
        positions k reads last, the sum of their squared weights, and
        ``(l, coupling)`` for each earlier reader l of them."""
        plan = [([], {}) for _ in range(self.m)]
        for (_, i, j), readers in self._readers().items():
            k, c = readers[-1]
            owned, earlier = plan[k]
            owned.append((i, j, c))
            for l, d in readers[:-1]:
                earlier[l] = earlier.get(l, 0) + c * d
        return [(owned, sum(c * c for _, _, c in owned),
                 [(l, w) for l, w in earlier.items() if w])
                for owned, earlier in plan]

    # -- the dual side: functionals by their constraint coordinates y ---------

    def moment(self, y):
        """Twice the moment matrix of the functional with coordinates y, as
        its real and imaginary parts: 2 conj(sum_k y_k A_k), the moment
        matrix being [phi(column_i* column_j)] for phi =
        _values_from_y(y), and phi(b) = beta(b) . y."""
        R = [[0] * self.n for _ in range(self.n)]
        I = [[0] * self.n for _ in range(self.n)]
        for yk, ents, (_, part) in zip(y, self.entries,
                                       self.constraint_class):
            if yk:
                X, s = (R, yk) if part == "H" else (I, -yk)
                for i, j, c in ents:
                    X[i][j] += s * c
        return R, I

    @functools.cached_property
    def ref_y(self) -> list:
        """:meth:`ref_value` as coordinates y: 0 on K conditions (it is
        real), and doubled on a class {w, w*}."""
        return [0 if part == "K" else self.ref_value(w) *
                (1 + (self.spec.word_star(w) != w)) for k, part in
                self.constraint_class for w in [self.class_reps[k]]]

    def ref_value(self, w) -> int:
        """The reference functional mixed into dual witnesses: on a group
        its moment matrix is the identity, or identity + ones in
        augmentation mode; on a free *-monoid it is 1 on the words s* s."""
        spec = self.spec
        if self.mode == "augmentation":
            return 0 if w == spec.identity_word else -1
        if spec.is_group():
            return int(w == spec.identity_word)
        # free monoid: 1 exactly on words of the shape s* s
        half = len(w) // 2
        return int(len(w) % 2 == 0 and spec.word_star(w[half:]) == w[:half])


# ---------------------------------------------------------------------------
# numeric feasibility
# ---------------------------------------------------------------------------

def sos_feasibility(b: AlgebraElement, asm: GramAssembly,
                    accept=None) -> sdp.SdpResult:
    """Margin SDP for membership of b in the cone of the assembly.

    A margin ``lam`` >= -TOL means b is inside or on the boundary of the
    degree-bounded cone, numerically; below that y carries a separating
    functional hint.  ``accept`` may stop the solve at an earlier
    certifying or refuting iterate (:func:`sdp.solve_margin_sdp`).
    """
    try:
        beta = [float(x) for x in asm.beta(b)]
    except OverflowError:
        raise sdp.SolverError("no float form", {
            "reason": "a constraint value is beyond float range"}) from None
    return sdp.solve_margin_sdp(asm.operator, beta, accept)


# ---------------------------------------------------------------------------
# exact primal side: rounding and projection
# ---------------------------------------------------------------------------

def _rationalize_hermitian(G: np.ndarray, den: int):
    """The hermitian part of G rounded to the grid (1/den)Z, as integer
    matrices R (symmetric) and I (antisymmetric): (R + iI)/den.

    Every rounded entry shares the denominator den (Peyrl & Parrilo, TCS
    2008), so the exact layer works over one small common denominator
    instead of the lcm of per-entry best approximations.
    """
    H = (G + G.conj().T) / 2
    return [[[round(x) for x in row] for row in (part * den).tolist()]
            for part in (H.real, H.imag)]


def _gaussian(R, I, scale):
    """The QC matrix (R + iI)/scale, as artifacts take it."""
    return [[QC(Fraction(r, scale), Fraction(i, scale)) for r, i in zip(rr, ir)]
            for rr, ir in zip(R, I)]


def _certificate(asm: GramAssembly, b: AlgebraElement,
                 factor: exactla.IntegerLDL) -> SosCertificate:
    """The certificate of b with one square per positive pivot of the
    integer factor of its Gram matrix (:meth:`exactla.IntegerLDL.squares`):
    each root sum_i r_i column_i has coprime Gaussian-integer r_i."""
    squares = []
    for k, weight, root in factor.squares():
        terms = {}
        for (x, y), column in zip(root, asm.columns[k:]):
            for w, c, _ in column:                  # real column terms
                re, im = terms.get(w, (0, 0))
                terms[w] = (re + c * x, im + c * y)
        squares.append((weight, AlgebraElement(
            asm.spec, {w: QC(*z) for w, z in terms.items()})))
    return SosCertificate(target=b, squares=squares, mode=asm.mode)


def round_and_project(asm: GramAssembly, b: AlgebraElement,
                      gram: np.ndarray) -> SosCertificate:
    """Turn a numeric Gram hint on the assembly's basis into an exact
    certificate.

    Round entries to the grid (1/den)Z for den in DENOMINATOR_LADDER;
    move exactly onto the affine constraint slice by one sweep over the
    conditions, longest class first, each spreading its residual by
    minimum norm over the Gram positions no later condition reads
    (:attr:`GramAssembly.sweep_plan`); check A(Q) == beta exactly; and
    decide PSD by fraction-free LDL* with the zero-pivot rule, all on
    integers over one denominator.  In full mode each position has one
    reader, and the sweep is the minimum-norm correction.  A condition
    that owns no position must already hold: on free and free abelian
    balls in augmentation mode these are the letters' K conditions, and
    Im x pairs to 0 with every homomorphism to Z for hermitian x in I^2.
    On a finite group a generic hint can miss one, and ProjectionError
    names it; :func:`certify_membership` decides there in closed form.
    The squares of that LDL* sum to the target by construction; the
    identity itself is checked once, by :func:`verify_certificate`,
    where the certificate is used (``ncsos sos`` runs it before
    writing).  Raises ProjectionError with a margin report when every
    attempt fails.
    """
    beta = asm.beta(b)
    report = {}
    for den in DENOMINATOR_LADDER:
        R, I = _rationalize_hermitian(gram, den)
        scale = den                 # Q = (R + iI)/scale
        # resid is 2 den (beta - A(Q)); adding z_k c at k's owned
        # positions moves resid_l by z_k times the coupling of l and k
        resid = [2 * den * bk - qk for bk, qk in zip(beta, asm.apply(R, I))]
        z = [0] * asm.m
        for k in reversed(range(asm.m)):
            if rk := resid[k]:
                _, norm, earlier = asm.sweep_plan[k]
                if not norm:
                    cls, part = asm.constraint_class[k]
                    word = asm.spec.word_to_str(asm.class_reps[cls])
                    raise ProjectionError(
                        f"condition {k} ({part} at {word!r}) owns no Gram "
                        "position and is missed", {"denominator": den})
                z[k] = zk = Fraction(rk, norm)
                for l, w in earlier:
                    resid[l] -= zk * w
        if any(z):
            t = math.lcm(*(zk.denominator for zk in z))
            R, I = ([[t * x for x in row] for row in X] for X in (R, I))
            for zk, (owned, _, _), (_, part) in zip(z, asm.sweep_plan,
                                                   asm.constraint_class):
                if zk:
                    X, zk = R if part == "H" else I, int(zk * t)
                    for i, j, c in owned:
                        X[i][j] += zk * c
            scale *= t
            if asm.apply(R, I) != [2 * scale * bk for bk in beta]:
                raise RuntimeError("exact projection missed the slice")
        ok, factor, fail = exactla.ldlt_psd_qc((R, I, scale))
        if ok:
            return _certificate(asm, b, factor)
        report[den] = {"fail_at": fail}
    raise ProjectionError("projected matrix not positive semidefinite",
                          {"attempts": report})


# ---------------------------------------------------------------------------
# exact dual side: separating functional
# ---------------------------------------------------------------------------

def _values_from_y(asm: GramAssembly, Y, den: int):
    """Word values realizing the constraint coordinates Y/den, as the
    integers ``(values, 2 den)`` a :class:`DualWitness` takes.

    For a class representative w the pairing contributes
    2 Re(x_w phi(w)) (or x_w phi(w) when w is self-adjoint), so
    phi(w) = (y_H + i y_K)/2, or y_H respectively.
    """
    values = {}
    for (k, part), yk in zip(asm.constraint_class, Y):
        w = asm.class_reps[k]
        star = asm.spec.word_star(w)
        if part == "H":
            values[w] = (2 * yk if star == w else yk, 0)
        else:                       # K follows the H of its class
            values[w] = (values[w][0], yk)
        values[star] = (values[w][0], -values[w][1])
    return values, 2 * den


def _y_from_word_values(asm: GramAssembly, values: dict) -> list:
    """Constraint coordinates of the functional with these word values,
    the inverse of :func:`_values_from_y`.  Raises CoverageError
    when a word of a class has no value, and ValueError unless
    phi(w*) = conj phi(w) on every class."""
    spec, y = asm.spec, []
    for k, part in asm.constraint_class:
        w = asm.class_reps[k]
        star = spec.word_star(w)
        if part == "H":             # K follows the H of its class
            v, sv = (values.get(u) for u in (w, star))
            if v is None or sv is None:
                raise CoverageError("missing functional value at " + repr(
                    spec.word_to_str(w if v is None else star)))
            v, sv = (x if isinstance(x, QC) else QC(Fraction(x))
                     for x in (v, sv))
            if sv != v.conjugate():
                raise ValueError("word values are not hermitian-consistent")
        x = v.re if part == "H" else v.im
        y.append(x if star == w else 2 * x)
    return y


def _integral(y):
    """``(Y, den)``: rationals y as integers Y over one denominator."""
    den = math.lcm(*(x.denominator for x in y))
    return [x.numerator * (den // x.denominator) for x in y], den


def _check_functional(asm: GramAssembly, beta, Y, den: int,
                      require_negative: bool):
    """Exact check of the functional with integer coordinates Y over den.

    Returns ``(value, M, fail)``: its value beta . Y/den at the target,
    its moment matrix M as integers ``(R, I, 2 den)``
    (:meth:`GramAssembly.moment`) and where its exact LDL* failed, None
    when it is PSD.  With require_negative a value >= 0 returns
    ``(value, None, None)`` before the moment is built.
    """
    value = Fraction(sum(bk * yk for bk, yk in zip(beta, Y) if bk), den)
    if require_negative and value >= 0:
        return value, None, None
    M = (*asm.moment(Y), 2 * den)
    ok, _, fail = exactla.ldlt_psd_qc(M)
    return value, M, None if ok else fail


def exact_dual_witness(asm: GramAssembly, b: AlgebraElement,
                       res: sdp.SdpResult) -> DualWitness:
    """Rationalize the numeric separating functional res.y and certify it.

    y is rounded to the grid (1/den)Z for den in DENOMINATOR_LADDER and
    mixed with mu times the coordinates of the reference functional
    (:meth:`GramAssembly.ref_value`); mu, on the same grid, is chosen
    from a numeric eigenvalue estimate and then both requirements --
    exact PSD moment matrix and exact negative value beta . y at the
    target -- are verified on integers over den.
    """
    import numpy as np
    beta, y_ref = asm.beta(b), asm.ref_y
    for den in DENOMINATOR_LADDER:
        Y = [round(float(v) * den) for v in res.y]          # y = Y/den
        # the float moment matrix for the estimate: conj(sum_k y_k A_k)
        Mf = asm.operator.adjoint(np.array([yk / den for yk in Y])).conj()
        est = float(np.linalg.eigvalsh((Mf + Mf.conj().T) / 2)[0])
        mu = math.ceil(max(0.0, -est) * 2 * den) + 1        # over den
        for _ in range(6):
            Y_mix = [yk + mu * rk for yk, rk in zip(Y, y_ref)]
            value, M, fail = _check_functional(asm, beta, Y_mix, den, True)
            if M is None:
                break                      # mixing ate the margin; refine y
            if fail is not None:
                mu = mu * 4
                continue
            return DualWitness(b, asm.mode, asm.basis,
                               _values_from_y(asm, Y_mix, den), M, value)
    raise ProjectionError("could not certify a separating functional",
                          {"margin": res.lam})


def witness_from_word_values(b: AlgebraElement, values: dict, basis=None,
                             mode: str = "full",
                             require_negative: bool = True) -> DualWitness:
    """Build and exactly validate a witness from given word values."""
    if basis is None:
        basis = gram_basis(b, mode)
    return _witness(GramAssembly(b.spec, basis, mode), b, values,
                    require_negative)


def _witness(asm: GramAssembly, b: AlgebraElement, values: dict,
             require_negative: bool = True) -> DualWitness:
    """:func:`witness_from_word_values` on an assembly already built."""
    Y, den = _integral(_y_from_word_values(asm, values))
    value, M, fail = _check_functional(asm, asm.beta(b), Y, den, False)
    if fail is not None:
        raise ValueError(f"moment matrix is not PSD (pivot failure {fail})")
    if require_negative and value >= 0:
        raise ValueError("witness value at target is not negative")
    return DualWitness(b, asm.mode, asm.basis,
                       _values_from_y(asm, Y, den), M, value)


# ---------------------------------------------------------------------------
# decision pipeline
# ---------------------------------------------------------------------------

def _regular_gram(asm: GramAssembly, b: AlgebraElement):
    """Q_{g,h} = b(g* h)/|G| over the basis, when the basis is a whole
    finite group G (less e in augmentation mode); else None.  Q is b in
    the regular representation over |G|, PSD exactly when b is a sum of
    squares; each u is g* h for |G| pairs, so sum Q_{g,h} g* h = b, and in
    augmentation mode the row sums epsilon(b)/|G| vanish, so
    sum Q_{g,h} c(g)* c(h) = b.  Q is (R + iI)/D in integers, with D =
    |G| lcm(denominators of b), returned as ``(R, I, D)``."""
    spec, order = asm.spec, asm.spec.order
    if asm.n + (asm.mode == "augmentation") != order:
        return None
    lcm = math.lcm(*(x.denominator for z in b.terms.values()
                     for x in (z.re, z.im)))
    at = {w: (int(z.re * lcm), int(z.im * lcm)) for w, z in b.terms.items()}
    Q = [[at.get(spec.word_mul(spec.word_star(g), h), (0, 0))
          for h in asm.basis] for g in asm.basis]
    R, I = ([[z[part] for z in row] for row in Q] for part in (0, 1))
    if asm.apply(R, I) != [2 * order * lcm * bk for bk in asm.beta(b)]:
        raise RuntimeError("closed-form Gram matrix misses the slice")
    return R, I, order * lcm


def _regular_witness(asm: GramAssembly, b: AlgebraElement, Q,
                     factor: exactla.IntegerLDL, fail) -> DualWitness:
    """Dual witness against b from a vector v over the basis with
    v* Q v < 0 (Q as (R, I, D) from :func:`_regular_gram`).
    The state phi(u) = sum_g conj(v_g) v_{gu}, the coefficient of u in
    v* v, is positive with phi(b) = |G| v* Q v; in augmentation mode the
    word values are phi(w) - phi(e).  v is the first with phi(b) < 0
    exactly among Q's least eigenvector, scaled to largest entry 1, on the
    grids 1/10 ... 10^-6 (coarsest, so shortest, first); else, or when Q
    has no float form, the exact vector that :func:`exactla.negative_vector`
    reads off Q's failed LDL* (factor, fail), with larger numbers."""
    import numpy as np

    def state(v):
        terms = [(w, x, y) for w, (x, y) in zip(asm.basis, v) if x or y]
        return star_product(asm.spec, terms, terms)

    R, I, D = Q
    try:
        Qf = np.array([[complex(r / D, i / D) for r, i in zip(*rows)]
                       for rows in zip(R, I)])
        least = np.linalg.eigh(Qf)[1][:, 0]
        least = least / least[np.argmax(abs(least))]
        proposals = [[(round(z.real * 10 ** k), round(z.imag * 10 ** k))
                      for z in least] for k in range(1, 7)]
    except (OverflowError, ValueError):     # no float form
        proposals = []
    for v in proposals:
        phi = state(v)
        if sum(c.re * x - c.im * y for w, c in b.terms.items()
               for x, y in [phi.get(w, (0, 0))]) < 0:
            break
    else:
        phi = state(exactla.negative_vector(factor, fail))
    at_e = phi.get(asm.spec.identity_word, (0, 0))[0] \
        if asm.mode == "augmentation" else 0
    return _witness(asm, b, {w: QC(re - at_e, im) for w in asm.covered_words
                             for re, im in [phi.get(w, (0, 0))]})


@dataclass
class MembershipOutcome:
    verdict: str                   # 'certified' | 'refuted' | 'undecided'
    mode: str
    radius: int
    margin: Optional[float] = None
    certificate: Optional[SosCertificate] = None
    witness: Optional[DualWitness] = None
    diagnostics: dict = field(default_factory=dict)


def certify_membership(b: AlgebraElement, mode: str = "full",
                       radius: int | None = None) -> MembershipOutcome:
    """Decide degree-bounded cone membership with an exact artifact.

    'certified' carries an SosCertificate that is exact by construction
    (an exact LDL* of a Gram matrix on the constraint slice);
    :func:`verify_certificate` is the check of its identity.  'refuted'
    carries a DualWitness whose moment matrix passed an exact LDL*.
    A finite group's exact Gram hint decides by itself (``gram_hint:
    "exact"``); elsewhere the SDP proposes it.  What the exact layer
    cannot pin down is 'undecided' with diagnostics (never silently).
    """
    return _certify(b, mode, radius, refute=True)


def _certify(b: AlgebraElement, mode: str, radius: int | None,
             refute: bool) -> MembershipOutcome:
    """:func:`certify_membership`; without ``refute`` no dual witness is
    built, and a target outside the cone is 'undecided'."""
    if mode == "augmentation" and b.augmentation():
        raise ValueError("augmentation-mode target must lie in the ideal")
    if radius is None:
        radius = default_radius(b, mode)
    done = functools.partial(MembershipOutcome, mode=mode, radius=radius)
    if not b:
        return done("certified", certificate=SosCertificate(b, [], mode))
    try:
        asm = GramAssembly(b.spec, _ball_basis(b, mode, radius), mode)
    except OversizeError as err:
        if not b.is_hermitian():        # refused before any assembly read b
            raise ValueError("target must be hermitian") from None
        return done("undecided", diagnostics={"refused": str(err),
                                              **err.report})
    asm.beta(b)                 # checks the target once; every stage reuses it
    diag = {"basis_size": asm.n, "constraints": asm.m}
    gram = _regular_gram(asm, b)
    if gram is not None:
        done = functools.partial(done, diagnostics=diag)
        diag["gram_hint"] = "exact"
        ok, factor, fail = exactla.ldlt_psd_qc(gram)
        if ok:
            return done("certified",
                        certificate=_certificate(asm, b, factor))
        diag["fail_at"] = fail
        return done("refuted", witness=_regular_witness(
            asm, b, gram, factor, fail)) if refute else done("undecided")
    found = {}

    def early(res):                    # an iterate the exact layer may take
        try:
            if res.lam > 0:
                found["certificate"] = round_and_project(asm, b, res.gram)
            elif refute:
                found["witness"] = exact_dual_witness(asm, b, res)
        except ProjectionError:
            pass
        return bool(found)

    try:
        res = sos_feasibility(b, asm, early)
    except sdp.SolverError as err:
        return done("undecided", diagnostics={"solver": err.info})
    diag.update(sdp_iterations=res.iterations, gap=res.gap,
                sdp_stop="converged")
    done = functools.partial(done, margin=res.lam, diagnostics=diag)
    if "certificate" in found:
        diag["sdp_stop"] = "early_certificate"
        return done("certified", **found)
    if "witness" in found:
        diag["sdp_stop"] = "early_refutation"
        return done("refuted", **found)
    # the boundary band [-TOL, TOL] tries both: a clean rational Gram may
    # still round, and a slightly negative margin may still refute
    if res.lam >= -TOL:
        try:
            return done("certified",
                        certificate=round_and_project(asm, b, res.gram))
        except ProjectionError as err:
            diag["projection"] = err.report
    if res.lam < 0 and refute:
        try:
            return done("refuted", witness=exact_dual_witness(asm, b, res))
        except ProjectionError as err:
            diag["dual"] = err.report
    return done("undecided")


def interior_shift_certificate(b: AlgebraElement, eta) -> SosCertificate:
    """Exact certificate for b + eta*1, the epsilon-shift Positivstellensatz:
    a strictly positive b puts b + eta*1 in the cone for every eta > 0.

    Runs :func:`certify_membership` on b + eta*1 in full mode at the
    default radius of the shifted target, and raises ValueError naming
    the verdict unless it is certified.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    out = certify_membership(b + AlgebraElement.unit(b.spec) * eta, "full")
    if out.verdict != "certified":
        raise ValueError(f"b + eta*1 is {out.verdict} at radius {out.radius}")
    return out.certificate


# ---------------------------------------------------------------------------
# verification (independent of the solver path)
# ---------------------------------------------------------------------------

def certificate_defect(cert: SosCertificate) -> AlgebraElement:
    """target - sum_i w_i (a_i)* a_i, exactly: with d the lcm of a_i's
    denominators, :func:`star_product` gives (d a_i)* (d a_i) in integers,
    and w_i/d^2 = n/m is applied once per word.  The sums are reduced
    integer pairs (num, den), real and imaginary parts apart, each step
    the gcd step of ``Fraction.__add__``; QC is built for the defect only."""
    spec, sums = cert.target.spec, ({}, {})
    for w, a in cert.squares:
        if a.spec != spec:
            raise ValueError("mixed algebra specs")
        d = math.lcm(*(x.denominator for c in a.terms.values()
                       for x in (c.re, c.im)))
        ints = [(u, c.re.numerator * (d // c.re.denominator),
                 c.im.numerator * (d // c.im.denominator))
                for u, c in a.terms.items()]
        scale = Fraction(w) / (d * d)
        n, m = scale.numerator, scale.denominator
        for u, xy in star_product(spec, ints, ints).items():
            for acc, x in zip(sums, xy):
                if x:
                    g = math.gcd(x, m)          # n x / m = x / e, reduced
                    x, e = n * (x // g), m // g
                    p, q = acc.get(u, (0, 1))
                    g = math.gcd(q, e)          # p/q + x/e (Henrici)
                    t = p * (e // g) + x * (q // g)
                    g2 = math.gcd(t, g)
                    acc[u] = (t // g2, q // g * (e // g2))
    defect, zero = {}, QC(0)
    for u in cert.target.terms.keys() | sums[0].keys() | sums[1].keys():
        c = cert.target.terms.get(u, zero)
        s = [acc.get(u, (0, 1)) for acc in sums]
        if [(c.re.numerator, c.re.denominator),
                (c.im.numerator, c.im.denominator)] != s:
            defect[u] = c - QC(Fraction(*s[0]), Fraction(*s[1]))
    return AlgebraElement(spec, defect)


def verify_certificate(cert: SosCertificate) -> bool:
    """Exact recomputation of the certificate identity.

    Augmentation-mode certificates additionally require every square
    root to lie in the augmentation ideal.
    """
    for w, a in cert.squares:
        if Fraction(w) <= 0:
            return False
        if cert.mode == "augmentation" and a.augmentation():
            return False
    return not certificate_defect(cert).terms


def verify_witness(wit: DualWitness) -> bool:
    """Re-derive the witness moment matrix and value from word values,
    which must be hermitian-consistent on every class the basis reaches:
    the moment matrix and beta(target) . y of their coordinates y."""
    try:
        asm = GramAssembly(wit.spec, wit.basis, wit.mode)
        y = _y_from_word_values(asm, wit.word_values)
        beta = asm.beta(wit.target)
    except (CoverageError, ValueError):
        return False
    value, M, fail = _check_functional(asm, beta, *_integral(y), True)
    return M is not None and fail is None and \
        _gaussian(*M) == wit.moment and value == wit.value_at_target


# ---------------------------------------------------------------------------
# explicit absorption certificates
# ---------------------------------------------------------------------------

def l1_absorption_certificate(h: AlgebraElement, lam) -> SosCertificate:
    """Exact squares for lam*1 - h from certified coefficient bounds.

    For each inverse pair {g, g^{-1}} with coefficient z and a rational
    rho >= |z|:   2 rho - z g - conj(z) g^{-1}
                = rho (1 - (z/rho) g)* (1 - (z/rho) g) + (rho - |z|^2/rho) 1,
    with weight rho/2 and no remainder when g is self-inverse.  Leftover
    identity mass becomes a weight on the square 1.  The identity holds
    by construction; :func:`verify_certificate` is its check.
    """
    spec = h.spec
    if not spec.is_group():
        raise ValueError("absorption certificates need a group backend")
    if not h.is_hermitian():
        raise ValueError("h must be hermitian")
    lam = Fraction(lam)
    e = spec.identity_word
    h_e = h.terms.get(e, QC(0)).re
    pairs = []
    seen = set()
    spend = h_e
    for w, z in h.terms.items():
        if w == e or w in seen:
            continue
        star = spec.word_star(w)
        seen.add(w)
        seen.add(star)
        rho = abs_upper(z)
        pairs.append((w, z, rho, star == w))
        eaten = rho + z.modulus_sq() / rho
        spend += eaten / 2 if star == w else eaten
    if lam < spend:
        raise ValueError(
            f"lam={lam} below certified absorption budget {spend}")

    one = AlgebraElement.unit(spec)
    squares = []
    for w, z, rho, selfinv in pairs:
        g = AlgebraElement.from_word(spec, w)
        sq = one - g * (z / rho)
        squares.append((rho / 2 if selfinv else rho, sq))
    leftover = lam - spend
    if leftover > 0:
        squares.append((leftover, one))
    return SosCertificate(target=one * lam - h, squares=squares, mode="full")


def lemma_bounded_certificate(a: AlgebraElement, lam=None) -> SosCertificate:
    """Certificate for lam*1 - a*a where lam covers the certified l1 bound."""
    bound = l1_norm_sq_bound(a)
    lam = bound if lam is None else Fraction(lam)
    if lam < bound:
        raise ValueError(f"lam={lam} below certified squared l1 bound {bound}")
    return l1_absorption_certificate(a.star() * a, lam)


# ---------------------------------------------------------------------------
# Laplacian domination
# ---------------------------------------------------------------------------

def laplacian_sos_certificate(spec: AlgebraSpec, S) -> SosCertificate:
    """Delta(S) = 1/2 sum_s c(s)* c(s), as an exact certificate."""
    delta = laplacian(spec, S)
    squares = [(Fraction(1, 2), c_of(spec, spec.validate_word(s))) for s in S]
    return SosCertificate(target=delta, squares=squares, mode="augmentation")


def nu_table(spec: AlgebraSpec, S, words):
    """Split-minimization weights: nu(s) = 2 on S, and
    nu(w) = min over geodesic splits w = u v of 2 (nu(u) + nu(v)),
    computed for the targets and the pieces of their splits only.

    Distances are word lengths over S (breadth-first search); only
    distance-additive splits are admissible, which keeps the recursion
    well-founded.  The search stops when every target is reached, when S
    generates nothing more, or on an infinite group at depth 2 * (longest
    target) + 2.  OversizeError: a sphere could take the search past
    MAX_NU_WORK words, or the words plus the splits listed pass it.
    """
    laplacian(spec, S)                  # S must define a Laplacian
    mul, star, e = spec.word_mul, spec.word_star, spec.identity_word
    targets = {spec.validate_word(w) for w in words}
    if e in targets:
        raise ValueError("nu is undefined at the identity")
    max_depth = 2 * max((spec.word_len(w) for w in targets), default=1) + 2
    dist = {}
    for depth, sphere in enumerate(spheres(spec, S)):
        dist.update(dict.fromkeys(sphere, depth))
        if targets <= dist.keys() or (not spec.order and depth == max_depth):
            break
        if min(len(dist) + len(sphere) * len(S),
               spec.order or math.inf) > MAX_NU_WORK:
            raise OversizeError(
                f"nu's search over S could pass {MAX_NU_WORK} words at "
                f"depth {depth + 1}", {"words": len(dist), "depth": depth})
    missing = targets - dist.keys()
    if missing:
        raise ValueError(
            "words not generated by S within the search depth: "
            + ", ".join(spec.word_to_str(w) for w in sorted(
                missing, key=spec.word_key)))

    def splits(w):                      # {u: v} with w = u v geodesic
        found, todo = {}, [(w, e)]
        while todo:
            x, y = todo.pop()           # y = x^-1 w
            for s in S:
                p = mul(x, star(s))
                if dist.get(p) == dist[x] - 1 and p not in found:
                    found[p] = mul(s, y)
                    todo.append((p, found[p]))
        del found[e]
        return found.items()

    nu, need, todo, work = dict.fromkeys(S, 2), set(), list(targets), 0
    while todo:
        w = todo.pop()
        if w not in nu and w not in need:
            need.add(w)
            pairs = splits(w)
            work += len(pairs)
            if len(dist) + work > MAX_NU_WORK:
                raise OversizeError(
                    f"nu's search and splits pass {MAX_NU_WORK} words and "
                    f"splits", {"words": len(dist), "splits": work})
            todo.extend(x for pair in pairs for x in pair)
    for w in sorted(need, key=dist.__getitem__):
        nu[w] = min(2 * (nu[u] + nu[v]) for u, v in splits(w))
    return {w: nu[w] for w in targets}


def laplacian_bound(b: AlgebraElement, S) -> Fraction:
    """Rational C with |phi(b)| <= C * phi(Delta(S)) for positive phi.

    b is written as sum beta_{gh} c(g)* c(h) by :func:`fox_decomposition`
    and the sum is checked exactly (RuntimeError if it is not b); diagonal
    terms are bounded by nu(g), cross terms by KAPPA*(nu(g)+nu(h))
    (Cauchy-Schwarz with the rational KAPPA >= 1/sqrt(2)), coefficient
    moduli by certified rational upper bounds.  A target outside I^2
    raises ValueError, naming each generator with a nonzero leftover.
    """
    spec = b.spec
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    beta, leftover = fox_decomposition(b)
    if leftover:
        raise ValueError(
            "target is not in the ideal-squared span: m_s - m_{s^-1} is "
            + ", ".join(f"{c!r} at s = {spec.word_to_str(s)}"
                        for s, c in leftover.items()))
    if sum((c_of(spec, g).star() * c_of(spec, h) * coef
            for (g, h), coef in beta.items()), AlgebraElement(spec, {})) != b:
        raise RuntimeError("the omega^2 decomposition does not sum to the "
                           "target")
    nu = nu_table(spec, S, {w for pair in beta for w in pair})
    return sum((abs_upper(c) * (nu[g] if g == h else KAPPA * (nu[g] + nu[h]))
                for (g, h), c in beta.items()), Fraction(0))


def delta_interior_shift(b: AlgebraElement, S):
    """Smallest bisected C with C*Delta(S) + b exactly in the ideal cone.

    Searches C upward from 0, asking :func:`certify_membership` in
    augmentation mode at each step, capped by laplacian_bound(b, S);
    brackets to relative width 2^-10 and returns the certificate of the
    certified endpoint.  Returns (C, SosCertificate).
    """
    spec = b.spec
    cap = laplacian_bound(b, S)
    delta = laplacian(spec, S)

    def attempt(c):                    # the primal side only
        out = _certify(delta * Fraction(c) + b, "augmentation", None, False)
        return out.certificate if out.verdict == "certified" else None

    cert = attempt(Fraction(0))
    if cert is not None:
        return Fraction(0), cert
    hi = cap if cap > 0 else Fraction(1)
    cert_hi = attempt(hi)
    if cert_hi is None:
        raise ValueError(
            f"no feasible constant up to the domination cap {cap} "
            "at this basis radius")
    lo = Fraction(0)
    width = hi / 1024                  # relative to the initial bracket
    while (hi - lo) > width:
        mid = (hi + lo) / 2
        cert_mid = attempt(mid)
        if cert_mid is None:
            lo = mid
        else:
            hi, cert_hi = mid, cert_mid
    return hi, cert_hi


# ---------------------------------------------------------------------------
# Kazhdan data for finite groups
# ---------------------------------------------------------------------------

def _primitive(p) -> list:
    """p divided by the gcd of its integer coefficients: a positive
    rescaling, so every sign, and so every Sturm count, is unchanged."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _sturm_chain(p) -> list:
    """Sturm sequence of the integer polynomial p (coefficients low to
    high).  Each term is a positive multiple of the classical one, kept
    primitive: remainders are pseudo-remainders whose every elimination
    step scales by |lc| > 0, so all signs match the rational chain."""
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            c, k = s * r[-1], len(r) - len(b)
            r = [m * x for x in r]
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
            r.pop()                         # the leading term cancelled
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _hom_eval(p, a: int, q: int) -> int:
    """q**deg(p) * p(a/q) for an integer polynomial p and q > 0, i.e. the
    value at a/q up to a positive factor, by homogeneous Horner."""
    acc, qk = p[-1], 1
    for c in reversed(p[:-1]):
        qk *= q
        acc = acc * a + c * qk
    return acc


def _sign_variations(chain, a: int, q: int) -> int:
    """Sign changes along an integer Sturm chain at a/q (q > 0), zeros
    skipped."""
    signs = [v > 0 for v in (_hom_eval(p, a, q) for p in chain if p) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def kazhdan_constant_finite(spec: AlgebraSpec, S):
    """Spectral gap of Delta(S) on the complement of invariant vectors.

    The gap is the smallest positive root of the minimal polynomial of
    Delta on the regular representation.  delta_e is cyclic and
    separating there, so the Krylov vectors Delta^k delta_e first become
    linearly dependent at k = deg(minpoly), and that dependence is the
    minimal polynomial.  Delta is symmetric, so their Gram matrix is the
    Hankel matrix of the integer moments t_j = (Delta^j)_e.  Its
    fraction-free LDL^T grows by one column per Krylov step; the new
    pivot is D_d times the squared distance of Delta^d delta_e from its
    predecessors, so the first zero pivot is the dependence and one
    integer back-substitution gives D_d * minpoly.  The minimal
    polynomial is square-free and 0 is a simple root once S generates
    (checked by closure).  Eigenvalues of an integer matrix are algebraic
    integers and by Gershgorin lie in [0, 2|S|], so the gap is rational
    only if it is one of the integers 1..2|S|, each tested exactly.
    Otherwise a bisection with (lo, hi] halving, counting roots by a
    Sturm chain of primitive integer polynomials signed exactly at each
    dyadic point, gives a certified enclosure of width <= KAZHDAN_PRECISION.
    Returns ``(lo, hi, exact)``: an enclosure of the gap, with
    ``lo == hi`` when ``exact``.
    """
    if spec.kind != FINITE:
        raise ValueError("Kazhdan constants are computed for finite backends")
    S = list(S)
    delta = laplacian(spec, S)
    order = spec.order
    if order == 1:
        raise ValueError("trivial group has no nonzero modes")
    subgroup = sum(len(sphere) for sphere in spheres(spec, S))
    if subgroup != order:
        raise ValueError("S does not generate: invariant subspace has "
                         f"dimension {order // subgroup}")
    terms = [(w, int(c.re)) for w, c in delta.terms.items()]
    vec = [1] + [0] * (order - 1)           # Delta^d delta_e
    t = [1]                                 # moments t_0 .. t_2d
    # cols[j][k], k <= j: Bareiss entry in row k, column j of the Hankel
    # matrix, i.e. the minor on rows 0..k and columns 0..k-1, j;
    # cols[j][j] is the leading minor D_{j+1} > 0
    cols = []
    while True:
        d = len(cols)
        col = [t[i + d] for i in range(d + 1)]
        prev = 1
        for k in range(d):
            pk, uk = cols[k][k], col[k]
            for i in range(k + 1, d):
                col[i] = (pk * col[i] - cols[i][k] * uk) // prev
            col[d] = (pk * col[d] - uk * uk) // prev
            prev = pk
        if col[d] == 0:
            break
        cols.append(col)
        nxt = [0] * order
        for v, x in enumerate(vec):
            if x:
                for w, c in terms:
                    nxt[spec.word_mul(w, v)] += c * x
        t += [sum(a * b for a, b in zip(nxt, vec)),
              sum(a * a for a in nxt)]
        vec = nxt
    # Delta^d delta_e = sum coef_j Delta^j delta_e with H_d coef = t[d:2d];
    # y = D_d * coef is integral (Cramer), so each division is exact
    det = cols[-1][-1]                      # D_d
    y = [0] * d
    for k in reversed(range(d)):
        y[k] = (det * col[k] - sum(cols[j][k] * y[j]
                                   for j in range(k + 1, d))) // cols[k][k]
    chain = _sturm_chain([-c for c in y[1:]] + [det])   # D_d minpoly/lambda
    hi = Fraction(sum(abs(c) for _, c in terms))        # Gershgorin
    at_zero = _sign_variations(chain, 0, 1)

    def roots_upto(z: Fraction) -> int:
        return at_zero - _sign_variations(chain, z.numerator, z.denominator)

    if roots_upto(hi) == 0:
        raise RuntimeError("no eigenvalue of Delta below its Gershgorin bound")
    # the least integer root is the gap iff no other root lies below it
    k = next((Fraction(j) for j in range(1, int(hi) + 1)
              if _hom_eval(chain[0], j, 1) == 0), None)
    if k is not None and roots_upto(k) == 1:
        return k, k, True
    lo = Fraction(0)
    while hi - lo > KAZHDAN_PRECISION:
        mid = (lo + hi) / 2
        if roots_upto(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return lo, hi, False


def kazhdan_margin_check(spec: AlgebraSpec, S, b: AlgebraElement,
                         witness: DualWitness) -> bool:
    """Exact test of gap * phi(b) < 2 * l1-bound(b) * phi(Delta)."""
    if witness.mode != "augmentation":
        raise ValueError("margin check expects an augmentation-mode witness")
    if b.augmentation():
        raise ValueError("b must lie in the augmentation ideal")
    if not b.terms:
        return True
    phi_b = witness.value_of(b)
    if phi_b.im != 0:
        raise ValueError("phi(b) must be real for hermitian b")
    delta = laplacian(spec, S)
    phi_delta = witness.value_of(delta)
    if phi_delta.im != 0 or phi_delta.re < 0:
        raise ValueError("phi(Delta) must be a nonnegative real")
    if phi_delta.re == 0:
        raise ValueError("witness functional is trivial on the ideal")
    lo, hi, _ = kazhdan_constant_finite(spec, S)
    bound = l1_norm_bound(b)
    return hi * phi_b.re < 2 * bound * phi_delta.re
