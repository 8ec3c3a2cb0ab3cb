"""Membership and certification for sums of hermitian squares.

Two cones are handled over every algebra backend:

* ``full`` mode: the cone of sums a_1*a_1 + ... + a_n*a_n with the a_i
  supported on a word ball;
* ``augmentation`` mode (group backends): the same cone built from the
  augmentation-ideal columns c(g) = g - 1, so every combination lands in
  the ideal-squared cone automatically.

The pipeline is hybrid: an interior-point SDP over sparse constraint
entries produces floating hints (a Gram matrix or a separating
functional), and everything the caller can trust is then rebuilt in
exact rational arithmetic from the same entries -- rounding plus exact
affine projection plus exact LDL* on the primal side, functional
rationalization mixed with a strictly positive reference moment matrix
on the dual side.  No verdict other than ``undecided`` ever rests on
floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exactla, sdp
from .groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    c_of,
    element_from_dict,
    element_to_dict,
    l1_norm_bound,
    l1_norm_sq_bound,
    laplacian,
    omega_squared_decomposition,
)
from .qc import QC, _limit_up, abs_upper

MODES = ("full", "augmentation")

# rational constant >= 1/sqrt(2) used by the Laplacian domination bound;
# any rational upper bound keeps the inequality valid.
KAPPA = Fraction(884, 1250)

DENOMINATOR_LADDER = (10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12)


class CoverageError(ValueError):
    """Target support not expressible with the chosen basis products."""


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
    residual_policy: dict = field(default_factory=lambda: {"kind": "exact"})

    def to_dict(self) -> dict:
        pol = dict(self.residual_policy)
        if pol.get("kind") == "absorbed":
            pol = {"kind": "absorbed",
                   "by": element_to_dict(pol["by"]),
                   "amount": str(pol["amount"])}
        return {
            "kind": "sos_certificate",
            "mode": self.mode,
            "target": element_to_dict(self.target),
            "squares": [{"w": str(w), "a": element_to_dict(a)}
                        for w, a in self.squares],
            "absorption": pol,
        }

    @staticmethod
    def from_dict(d: dict) -> "SosCertificate":
        pol = dict(d.get("absorption", {"kind": "exact"}))
        if pol.get("kind") == "absorbed":
            pol = {"kind": "absorbed", "by": element_from_dict(pol["by"]),
                   "amount": Fraction(pol["amount"])}
        return SosCertificate(
            target=element_from_dict(d["target"]),
            squares=[(Fraction(s["w"]), element_from_dict(s["a"]))
                     for s in d["squares"]],
            mode=d.get("mode", "full"),
            residual_policy=pol,
        )


@dataclass
class DualWitness:
    """Positive functional on the product span with a value at the target.

    ``word_values`` defines the functional: phi(x) = sum_w x_w * phi(w)
    with phi(e) fixed to 0 in augmentation mode.  ``moment`` is the
    matrix [phi of column_u* column_v] over ``basis`` and is exactly PSD.
    For refutations ``value_at_target`` is negative.
    """

    target: AlgebraElement
    mode: str
    basis: list                    # words
    word_values: dict              # word -> QC
    moment: list                   # n x n list of lists of QC
    value_at_target: Fraction

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
            mode=d["mode"],
            basis=[spec.word_from_str(s) for s in d["basis"]],
            word_values={spec.word_from_str(s): QC(Fraction(re), Fraction(im))
                         for s, (re, im) in d["word_values"].items()},
            moment=[[QC(Fraction(re), Fraction(im)) for re, im in row]
                    for row in d["moment"]],
            value_at_target=Fraction(d["value_at_target"]),
        )


# ---------------------------------------------------------------------------
# Gram assembly: basis columns, product classes, constraint matrices
# ---------------------------------------------------------------------------

def gram_basis(b: AlgebraElement, mode: str = "full"):
    """Word ball carrying the Gram matrix for target b.

    full: ball of radius ceil(deg/2); augmentation: the same ball minus
    the identity, columns read as c(g).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    spec = b.spec
    d = -(-b.degree() // 2)
    if mode == "augmentation":
        if not spec.is_group():
            raise ValueError("augmentation mode needs a group backend")
        return [w for w in ball(spec, max(1, d)) if w != spec.identity_word]
    return ball(spec, d)


class GramAssembly:
    """Constraint system tying Gram entries to target coefficients.

    One complex linear condition per conjugate word class {w, w*}, split
    into one or two real conditions via the hermitian matrices
    H = (E + E*)/2 and K = (E - E*)/(2i) where E[i,j] is the coefficient
    of the class representative in column_i* column_j.  In augmentation
    mode the identity class is omitted: it is implied by the others
    because both sides have augmentation zero.  ``entries[k]`` lists the
    nonzero ``(i, j, coeff)`` of condition k, for both number types.
    """

    def __init__(self, spec: AlgebraSpec, basis, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "augmentation" and not spec.is_group():
            raise ValueError("augmentation mode needs a group backend")
        if not basis:
            raise ValueError("empty Gram basis")
        self.spec = spec
        self.mode = mode
        self.basis = list(basis)
        self.n = len(self.basis)
        e = spec.identity_word

        cols = [AlgebraElement.from_word(spec, w) if mode == "full"
                else c_of(spec, w) for w in self.basis]
        self.columns = cols
        self.products = [[(cols[i].star() * cols[j]).terms
                          for j in range(self.n)] for i in range(self.n)]

        words = set()
        for i in range(self.n):
            for j in range(self.n):
                words.update(self.products[i][j])
        if mode == "augmentation":
            words.discard(e)
        reps = sorted({min(w, spec.word_star(w), key=spec.word_key)
                       for w in words}, key=spec.word_key)
        self.class_reps = reps
        self.rep_index = {w: k for k, w in enumerate(reps)}
        self.covered_words = words

        # E[p][q] = c at the representative of class k puts c/2 at (p, q)
        # and conj(c)/2 at (q, p) into H, -ic/2 and i conj(c)/2 into K
        half, half_i = QC(Fraction(1, 2)), QC(0, Fraction(1, 2))
        HK = [({}, {}) for _ in reps]
        for p in range(self.n):
            for q in range(self.n):
                for w, c in self.products[p][q].items():
                    if w in self.rep_index:
                        H, K = HK[self.rep_index[w]]
                        cc = c.conjugate()
                        for acc, pos, val in ((H, (p, q), c * half),
                                              (H, (q, p), cc * half),
                                              (K, (p, q), -c * half_i),
                                              (K, (q, p), cc * half_i)):
                            acc[pos] = acc.get(pos, 0) + val
        self.entries = []           # per condition: sorted (i, j, coeff)
        self.constraint_class = []  # (class index, 'H' | 'K')
        for k, w in enumerate(reps):
            selfconj = spec.word_star(w) == w
            for part, acc in zip("HK", HK[k][:1] if selfconj else HK[k]):
                self.entries.append([(i, j, c) for (i, j), c
                                     in sorted(acc.items()) if c])
                self.constraint_class.append((k, part))
        self.m = len(self.entries)
        self._gram_inner = None

    @property
    def A_exact(self):
        """Dense QC matrices, built on demand for the benchmark's traced
        pass (it counts nonzeros); nothing in the package reads them."""
        dense = [[[QC(0)] * self.n for _ in range(self.n)] for _ in self.entries]
        for A, ents in zip(dense, self.entries):
            for i, j, c in ents:
                A[i][j] = c
        return dense

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
        """Exact real constraint values for target b."""
        self.check_coverage(b)
        out = []
        for k, part in self.constraint_class:
            z = b.terms.get(self.class_reps[k], QC(0))
            out.append(z.re if part == "H" else -z.im)
        return out

    # -- exact evaluation ----------------------------------------------------

    def apply(self, Q):
        """<A_k, Q> for all k, exactly (Q hermitian QC matrix)."""
        vals = []
        for ents in self.entries:
            acc = QC(0)
            for i, j, c in ents:
                acc = acc + c.conjugate() * Q[i][j]
            if acc.im != 0:
                raise AssertionError("constraint value must be real")
            vals.append(acc.re)
        return vals

    def gram_inner(self):
        """Gram matrix <A_k, A_l> of the constraints (rational, PD), as
        a sum over the matrix positions the conditions share."""
        if self._gram_inner is None:
            at = {}
            for k, ents in enumerate(self.entries):
                for i, j, c in ents:
                    at.setdefault((i, j), []).append((k, c))
            G = [[Fraction(0)] * self.m for _ in range(self.m)]
            for here in at.values():
                for k, c in here:
                    cc = c.conjugate()
                    for l, d in here:
                        G[k][l] += (cc * d).re
            self._gram_inner = G
        return self._gram_inner

    def element_of(self, Q):
        """The algebra element sum_{ij} Q[i,j] * column_i* column_j."""
        terms: dict = {}
        for i in range(self.n):
            for j in range(self.n):
                q = Q[i][j]
                if not q:
                    continue
                for w, cw in self.products[i][j].items():
                    s = terms.get(w, QC(0)) + q * cw
                    if s:
                        terms[w] = s
                    else:
                        terms.pop(w, None)
        return AlgebraElement(self.spec, terms)

    # -- reference strictly positive functional --------------------------------

    def ref_value(self, w) -> Fraction:
        spec = self.spec
        if self.mode == "augmentation":
            return Fraction(0) if w == spec.identity_word else Fraction(-1)
        if spec.is_group():
            return Fraction(1 if w == spec.identity_word else 0)
        # free monoid: 1 exactly on words of the shape s* s
        if len(w) % 2:
            return Fraction(0)
        half = len(w) // 2
        return Fraction(1 if spec.word_star(w[half:]) == w[:half] else 0)

    def ref_moment(self):
        """Exact reference moment matrix (identity, or identity + ones)."""
        return self.moment_from_values(
            {w: QC(self.ref_value(w)) for w in self.covered_words})

    def ref_value_of(self, b: AlgebraElement) -> Fraction:
        acc = QC(0)
        for w, cw in b.terms.items():
            acc = acc + cw * self.ref_value(w)
        if acc.im != 0:
            raise AssertionError("reference value of hermitian target is real")
        return acc.re

    def moment_from_values(self, values: dict):
        """Matrix [phi(column_i* column_j)] for word values phi."""
        e = self.spec.identity_word
        M = [[QC(0)] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(self.n):
                acc = QC(0)
                for w, cw in self.products[i][j].items():
                    if w == e and self.mode == "augmentation":
                        continue
                    v = values.get(w)
                    if v is None:
                        raise CoverageError("missing word value")
                    acc = acc + cw * v
                M[i][j] = acc
        return M


# ---------------------------------------------------------------------------
# numeric feasibility
# ---------------------------------------------------------------------------

@dataclass
class Feasibility:
    status: str                    # 'feasible' | 'infeasible'
    margin: float
    gram: Optional[np.ndarray]     # numeric Gram hint (A(gram) = beta)
    y: np.ndarray                  # numeric dual functional coordinates
    assembly: GramAssembly
    beta: list
    iterations: int
    gap: float


def sos_feasibility(b: AlgebraElement, basis=None, mode: str = "full",
                    tol: float = 1e-7, sdp_tol: float = 1e-10) -> Feasibility:
    """Margin SDP for membership of b in the chosen squares cone.

    status 'feasible' means the margin is >= -tol (b inside or on the
    boundary of the degree-bounded cone, numerically); 'infeasible'
    carries a separating functional hint in y.
    """
    if basis is None:
        basis = gram_basis(b, mode)
    asm = GramAssembly(b.spec, basis, mode)
    beta = asm.beta(b)
    entries = [(k, i, j, complex(c)) for k, ents in enumerate(asm.entries)
               for i, j, c in ents]
    res = sdp.solve_margin_sdp(entries, asm.n, [float(x) for x in beta],
                               tol=sdp_tol)
    status = "feasible" if res.lam >= -tol else "infeasible"
    return Feasibility(status=status, margin=res.lam, gram=res.gram,
                       y=res.y, assembly=asm, beta=beta,
                       iterations=res.iterations, gap=res.gap)


# ---------------------------------------------------------------------------
# exact primal side: rounding and projection
# ---------------------------------------------------------------------------

def _rationalize_hermitian(G: np.ndarray, den: int):
    n = G.shape[0]
    Q = [[QC(0)] * n for _ in range(n)]
    for i in range(n):
        Q[i][i] = QC(Fraction(float(G[i, i].real)).limit_denominator(den))
        for j in range(i + 1, n):
            z = (G[i, j] + np.conj(G[j, i])) / 2
            q = QC(Fraction(float(z.real)).limit_denominator(den),
                   Fraction(float(z.imag)).limit_denominator(den))
            Q[i][j] = q
            Q[j][i] = q.conjugate()
    return Q


def _squares_from_ldlt(asm: GramAssembly, d, L):
    squares = []
    for k in range(asm.n):
        if d[k] == 0:
            continue
        vec = [L[i][k].conjugate() for i in range(asm.n)]
        a = AlgebraElement(asm.spec, {})
        for i, coef in enumerate(vec):
            if coef:
                a = a + asm.columns[i] * coef
        squares.append((d[k], a))
    return squares


def round_and_project(gram: np.ndarray, b: AlgebraElement, basis=None,
                      mode: str = "full", assembly: GramAssembly | None = None,
                      denominators=DENOMINATOR_LADDER) -> SosCertificate:
    """Turn a numeric Gram hint into an exact certificate.

    Rationalize entries at increasing denominators, move exactly back
    onto the affine constraint slice (minimum-norm correction through
    the constraint Gram matrix), then decide PSD exactly by LDL* with the
    zero-pivot rule.  Raises ProjectionError with a margin report when
    every attempt fails.
    """
    if assembly is None:
        assembly = GramAssembly(b.spec, basis if basis is not None
                                else gram_basis(b, mode), mode)
    asm = assembly
    beta = asm.beta(b)
    report = {}
    for den in denominators:
        Q = _rationalize_hermitian(gram, den)
        resid = [bk - qk for bk, qk in zip(beta, asm.apply(Q))]
        if any(resid):
            z = exactla.solve_linear(
                [[QC(x) for x in row] for row in asm.gram_inner()],
                [QC(r) for r in resid])
            if z is None:
                raise ProjectionError(
                    "constraint system is inconsistent", {"denominator": den})
            for zk, ents in zip(z, asm.entries):
                if zk:
                    for i, j, c in ents:
                        Q[i][j] = Q[i][j] + zk * c
            if any(bk != qk for bk, qk in zip(beta, asm.apply(Q))):
                raise RuntimeError("exact projection missed the slice")
        ok, d, L, fail = exactla.ldlt_psd_qc(Q)
        if ok:
            squares = _squares_from_ldlt(asm, d, L)
            cert = SosCertificate(target=b, squares=squares, mode=mode)
            if certificate_defect(cert).terms:
                raise RuntimeError("projected certificate is not exact")
            return cert
        report[den] = {"fail_at": fail}
    raise ProjectionError("projected matrix not positive semidefinite",
                          {"attempts": report})


# ---------------------------------------------------------------------------
# exact dual side: separating functional
# ---------------------------------------------------------------------------

def _word_values_from_y(asm: GramAssembly, y):
    """Functional word values realizing the constraint coordinates y.

    For a class representative w the pairing contributes
    2 Re(x_w phi(w)) (or x_w phi(w) when w is self-adjoint), so
    phi(w) = (y_H + i y_K)/2, or y_H respectively.
    """
    per_class = {}
    for (k, part), yk in zip(asm.constraint_class, y):
        h, kk = per_class.get(k, (Fraction(0), Fraction(0)))
        if part == "H":
            per_class[k] = (yk, kk)
        else:
            per_class[k] = (h, yk)
    values = {}
    for k, w in enumerate(asm.class_reps):
        yh, yk = per_class[k]
        if asm.spec.word_star(w) == w:
            values[w] = QC(yh)
        else:
            values[w] = QC(yh / 2, yk / 2)
            values[asm.spec.word_star(w)] = QC(yh / 2, -yk / 2)
    return values


def exact_dual_witness(b: AlgebraElement, feas: Feasibility,
                       denominators=DENOMINATOR_LADDER) -> DualWitness:
    """Rationalize the numeric separating functional and certify it.

    The rationalized moment matrix is mixed with mu times the reference
    strictly positive one; mu is chosen from a numeric eigenvalue
    estimate and then both requirements -- exact PSD moment matrix and
    exact negative value at the target -- are verified over rationals.
    """
    asm = feas.assembly
    ref_vals = {w: QC(asm.ref_value(w)) for w in asm.covered_words}
    ref_target = asm.ref_value_of(b)
    M_ref = asm.ref_moment()

    for den in denominators:
        y_rat = [Fraction(float(v)).limit_denominator(den) for v in feas.y]
        values = _word_values_from_y(asm, y_rat)
        M = asm.moment_from_values(values)
        Mf = np.array([[complex(z) for z in row] for row in M])
        est = float(np.linalg.eigvalsh((Mf + Mf.conj().T) / 2)[0])
        mu0 = _limit_up(Fraction(max(0.0, -est)) * 2 + Fraction(1, den),
                        10 ** 15)
        mu = mu0
        for _ in range(6):
            M_mix = [[M[i][j] + M_ref[i][j] * mu for j in range(asm.n)]
                     for i in range(asm.n)]
            value = sum((b.terms[w] * values.get(w, QC(0))).re
                        for w in b.terms) + mu * ref_target
            if value >= 0:
                break                      # mixing ate the margin; refine y
            ok, _, _, _ = exactla.ldlt_psd_qc(M_mix)
            if not ok:
                mu = mu * 4
                continue
            mixed_values = {w: values.get(w, QC(0)) + ref_vals[w] * mu
                            for w in asm.covered_words}
            if asm.mode == "augmentation":
                mixed_values.pop(asm.spec.identity_word, None)
            return DualWitness(target=b, mode=asm.mode, basis=asm.basis,
                               word_values=mixed_values, moment=M_mix,
                               value_at_target=Fraction(value))
    raise ProjectionError("could not certify a separating functional",
                          {"margin": feas.margin})


def witness_from_word_values(b: AlgebraElement, values: dict, basis=None,
                             mode: str = "full",
                             require_negative: bool = True) -> DualWitness:
    """Build and exactly validate a witness from given word values."""
    spec = b.spec
    if basis is None:
        basis = gram_basis(b, mode)
    asm = GramAssembly(spec, basis, mode)
    asm.check_coverage(b)
    vals = {}
    for w in asm.covered_words:
        v = values.get(w)
        if v is None:
            raise CoverageError(
                f"missing functional value at {spec.word_to_str(w)!r}")
        v = v if isinstance(v, QC) else QC(Fraction(v))
        star = spec.word_star(w)
        sv = values.get(star)
        if sv is None:
            raise CoverageError(
                f"missing functional value at {spec.word_to_str(star)!r}")
        sv = sv if isinstance(sv, QC) else QC(Fraction(sv))
        if sv != v.conjugate():
            raise ValueError("word values are not hermitian-consistent")
        vals[w] = v
    M = asm.moment_from_values(vals)
    ok, _, _, fail = exactla.ldlt_psd_qc(M)
    if not ok:
        raise ValueError(f"moment matrix is not PSD (pivot failure {fail})")
    acc = QC(0)
    e = spec.identity_word
    for w, cw in b.terms.items():
        if w == e and mode == "augmentation":
            continue
        acc = acc + cw * vals[w]
    if acc.im != 0:
        raise ValueError("value at hermitian target must be real")
    if require_negative and acc.re >= 0:
        raise ValueError("witness value at target is not negative")
    return DualWitness(target=b, mode=mode, basis=list(basis),
                       word_values=vals, moment=M,
                       value_at_target=acc.re)


# ---------------------------------------------------------------------------
# decision pipeline
# ---------------------------------------------------------------------------

@dataclass
class MembershipOutcome:
    verdict: str                   # 'certified' | 'refuted' | 'undecided'
    mode: str
    radius: int
    margin: Optional[float]
    certificate: Optional[SosCertificate] = None
    witness: Optional[DualWitness] = None
    diagnostics: dict = field(default_factory=dict)


def certify_membership(b: AlgebraElement, mode: str = "full",
                       radius: int | None = None,
                       tol: float = 1e-7) -> MembershipOutcome:
    """Decide degree-bounded cone membership with an exact artifact.

    'certified' carries an exactly verified SosCertificate, 'refuted' an
    exactly verified DualWitness; anything the exact layer cannot pin
    down is returned as 'undecided' with diagnostics (never silently).
    """
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    spec = b.spec
    if mode == "augmentation" and b.augmentation():
        raise ValueError("augmentation-mode target must lie in the ideal")
    if radius is None:
        d = -(-b.degree() // 2)
        radius = max(1, d) if mode == "augmentation" else d
    if not b:
        return MembershipOutcome(
            verdict="certified", mode=mode, radius=radius, margin=None,
            certificate=SosCertificate(target=b, squares=[], mode=mode))
    basis = ([w for w in ball(spec, radius) if w != spec.identity_word]
             if mode == "augmentation" else ball(spec, radius))
    try:
        feas = sos_feasibility(b, basis, mode=mode, tol=tol)
    except sdp.SolverError as err:
        return MembershipOutcome(verdict="undecided", mode=mode,
                                 radius=radius, margin=None,
                                 diagnostics={"solver": err.info})
    diag = {"iterations": feas.iterations, "gap": feas.gap,
            "basis_size": feas.assembly.n, "constraints": feas.assembly.m}
    if feas.margin > tol:
        try:
            cert = round_and_project(feas.gram, b, assembly=feas.assembly,
                                     mode=mode)
            return MembershipOutcome(verdict="certified", mode=mode,
                                     radius=radius, margin=feas.margin,
                                     certificate=cert, diagnostics=diag)
        except ProjectionError as err:
            diag["projection"] = err.report
            return MembershipOutcome(verdict="undecided", mode=mode,
                                     radius=radius, margin=feas.margin,
                                     diagnostics=diag)
    if feas.margin < -tol:
        try:
            wit = exact_dual_witness(b, feas)
            return MembershipOutcome(verdict="refuted", mode=mode,
                                     radius=radius, margin=feas.margin,
                                     witness=wit, diagnostics=diag)
        except ProjectionError as err:
            diag["dual"] = err.report
            return MembershipOutcome(verdict="undecided", mode=mode,
                                     radius=radius, margin=feas.margin,
                                     diagnostics=diag)
    # boundary band: exact rounding may still succeed (clean rational Gram)
    try:
        cert = round_and_project(feas.gram, b, assembly=feas.assembly,
                                 mode=mode)
        return MembershipOutcome(verdict="certified", mode=mode,
                                 radius=radius, margin=feas.margin,
                                 certificate=cert, diagnostics=diag)
    except ProjectionError as err:
        diag["projection"] = err.report
    if feas.margin < 0:
        try:
            wit = exact_dual_witness(b, feas)
            return MembershipOutcome(verdict="refuted", mode=mode,
                                     radius=radius, margin=feas.margin,
                                     witness=wit, diagnostics=diag)
        except ProjectionError as err:
            diag["dual"] = err.report
    return MembershipOutcome(verdict="undecided", mode=mode, radius=radius,
                             margin=feas.margin, diagnostics=diag)


# ---------------------------------------------------------------------------
# verification (independent of the solver path)
# ---------------------------------------------------------------------------

def certificate_defect(cert: SosCertificate) -> AlgebraElement:
    """target - sum_i weight_i (a_i)* a_i, exactly."""
    acc = AlgebraElement(cert.target.spec, {})
    for w, a in cert.squares:
        acc = acc + (a.star() * a) * Fraction(w)
    return cert.target - acc


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


def _checked(cert: SosCertificate) -> SosCertificate:
    """cert itself, once the exact verifier has accepted it."""
    if not verify_certificate(cert):
        raise RuntimeError("constructed certificate fails exact verification")
    return cert


def verify_witness(wit: DualWitness, require_negative: bool = True) -> bool:
    """Re-derive the witness moment matrix and value from word values."""
    try:
        asm = GramAssembly(wit.spec, wit.basis, wit.mode)
        M = asm.moment_from_values(wit.word_values)
    except (CoverageError, ValueError):
        return False
    if M != wit.moment:
        return False
    if not exactla.is_hermitian_qc(M):
        return False
    ok, _, _, _ = exactla.ldlt_psd_qc(M)
    if not ok:
        return False
    e = wit.spec.identity_word
    acc = QC(0)
    for w, cw in wit.target.terms.items():
        if w == e and wit.mode == "augmentation":
            continue
        v = wit.word_values.get(w)
        if v is None:
            return False
        acc = acc + cw * v
    if acc.im != 0 or acc.re != wit.value_at_target:
        return False
    return not require_negative or acc.re < 0


# ---------------------------------------------------------------------------
# explicit absorption certificates
# ---------------------------------------------------------------------------

def l1_absorption_certificate(h: AlgebraElement, lam) -> SosCertificate:
    """Exact squares for lam*1 - h from certified coefficient bounds.

    For each inverse pair {g, g^{-1}} with coefficient z and a rational
    rho >= |z|:   2 rho - z g - conj(z) g^{-1}
                = rho (1 - (z/rho) g)* (1 - (z/rho) g) + (rho - |z|^2/rho) 1,
    with weight rho/2 and no remainder when g is self-inverse.  Leftover
    identity mass becomes a weight on the square 1.
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
    return _checked(SosCertificate(target=one * lam - h, squares=squares,
                                   mode="full"))


def lemma_bounded_certificate(a: AlgebraElement, lam=None) -> SosCertificate:
    """Certificate for lam*1 - a*a where lam covers the certified l1 bound."""
    bound = l1_norm_sq_bound(a)
    lam = bound if lam is None else Fraction(lam)
    if lam < bound:
        raise ValueError(f"lam={lam} below certified squared l1 bound {bound}")
    return l1_absorption_certificate(a.star() * a, lam)


def _element_squares(r: AlgebraElement) -> list:
    """Squares summing exactly to r, funded by r's own identity mass."""
    spec = r.spec
    one = AlgebraElement.unit(spec)
    r_e = r.terms.get(spec.identity_word, QC(0)).re
    return l1_absorption_certificate(one * r_e - r, r_e).squares


def interior_shift_certificate(b: AlgebraElement, eta, basis=None,
                               tol: float = 1e-7) -> SosCertificate:
    """Exact certificate for b + eta*1 using half of eta as rounding room.

    The margin SDP runs on b + (eta/2)*1; the remaining shift buys
    eta/(2n) of extra Gram eigenvalue room on an n-column basis, so any
    margin above -eta/(2n) means the full target is numerically inside.
    The recentred Gram is first rounded and exactly projected onto the
    full target (residual policy 'exact'); failing that it is rounded
    plainly and the exact hermitian residual, whose l1 norm is small
    against the reserved identity mass, is absorbed through certified
    coefficient bounds.
    """
    spec = b.spec
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    one = AlgebraElement.unit(spec)
    half = eta / 2
    tau_half = b + one * half
    target = b + one * eta
    if basis is None:
        basis = gram_basis(target, "full")
    feas = sos_feasibility(tau_half, basis, mode="full", tol=tol)
    asm = feas.assembly
    room = eta / (2 * asm.n)
    if feas.margin < -float(room) - tol:
        raise ValueError(
            f"target is SDP-infeasible even with the full shift "
            f"(margin {feas.margin:.3e} < {-float(room):.3e})")
    G_full = feas.gram + float(room) * np.eye(asm.n)
    try:
        return _checked(round_and_project(G_full, target, assembly=asm))
    except ProjectionError:
        pass
    # plain rounding at a safely interior shift; absorb the exact residual
    margin = Fraction(feas.margin)
    shift = min(room, max(Fraction(0), -margin) + room / 2)
    G_plain = feas.gram + float(shift) * np.eye(asm.n)
    last = "rounded Gram matrix never became positive semidefinite"
    for den in DENOMINATOR_LADDER:
        Q = _rationalize_hermitian(G_plain, den)
        ok, d, L, _ = exactla.ldlt_psd_qc(Q)
        if not ok:
            continue
        squares = _squares_from_ldlt(asm, d, L)
        resid = target - asm.element_of(Q)   # hermitian, small l1 off 1
        try:
            absorb = _element_squares(resid)
        except ValueError as err:
            last = f"residual exceeds the absorption headroom: {err}"
            continue
        return _checked(SosCertificate(
            target=target, squares=squares + absorb, mode="full",
            residual_policy={"kind": "absorbed", "by": resid, "amount": half}))
    raise ValueError(last)


# ---------------------------------------------------------------------------
# Laplacian domination
# ---------------------------------------------------------------------------

def laplacian_sos_certificate(spec: AlgebraSpec, S) -> SosCertificate:
    """Delta(S) = 1/2 sum_s c(s)* c(s), as an exact certificate."""
    delta = laplacian(spec, S)
    squares = [(Fraction(1, 2), c_of(spec, spec.validate_word(s))) for s in S]
    return _checked(SosCertificate(target=delta, squares=squares,
                                   mode="augmentation"))


def nu_table(spec: AlgebraSpec, S, words):
    """Split-minimization weights: nu(s) = 2 on S, and
    nu(w) = min over geodesic splits w = u v of 2 (nu(u) + nu(v)).

    Distances are word lengths over S (breadth-first search); only
    distance-additive splits are admissible, which keeps the recursion
    well-founded.
    """
    S = [spec.validate_word(s) for s in S]
    sset = set(S)
    e = spec.identity_word
    if e in sset:
        raise ValueError("S must not contain the identity")
    targets = {spec.validate_word(w) for w in words}
    if e in targets:
        raise ValueError("nu is undefined at the identity")
    dist = {e: 0}
    frontier = [e]
    depth = 0
    max_depth = 2 * max((spec.word_len(w) for w in targets), default=1) + 2
    while frontier and not targets <= dist.keys() and depth < max_depth:
        depth += 1
        new = []
        for u in frontier:
            for s in S:
                v = spec.word_mul(u, s)
                if v not in dist:
                    dist[v] = depth
                    new.append(v)
        frontier = new
    missing = targets - dist.keys()
    if missing:
        raise ValueError(
            "words not generated by S within the search depth: "
            + ", ".join(spec.word_to_str(w) for w in sorted(
                missing, key=spec.word_key)))
    by_depth: dict = {}
    for w, dw in dist.items():
        by_depth.setdefault(dw, []).append(w)
    nu = {}
    for s in S:
        if dist.get(s) != 1:
            raise ValueError("generators must have distance 1")
        nu[s] = Fraction(2)
    need = max(dist[w] for w in targets)
    for dw in range(2, need + 1):
        for w in by_depth.get(dw, []):
            best = None
            for u, du in dist.items():
                if not 1 <= du <= dw - 1:
                    continue
                v = spec.word_mul(spec.word_star(u), w)
                if dist.get(v) == dw - du and u in nu and v in nu:
                    cand = 2 * (nu[u] + nu[v])
                    if best is None or cand < best:
                        best = cand
            if best is not None:
                nu[w] = best
    return {w: nu[w] for w in targets}


def laplacian_bound(b: AlgebraElement, S, radius: int | None = None) -> Fraction:
    """Rational C with |phi(b)| <= C * phi(Delta(S)) for positive phi.

    b is written exactly as sum beta_{gh} c(g)* c(h); diagonal terms are
    bounded by nu(g), cross terms by KAPPA*(nu(g)+nu(h)) (Cauchy-Schwarz
    with the rational constant KAPPA >= 1/sqrt(2)), and coefficient
    moduli by certified rational upper bounds.
    """
    spec = b.spec
    if not b.is_hermitian():
        raise ValueError("target must be hermitian")
    if not b:
        return Fraction(0)
    beta = None
    max_r = radius if radius is not None else max(1, b.degree())
    for r in range(1, max_r + 1):
        beta = omega_squared_decomposition(b, r)
        if beta is not None:
            break
    if beta is None:
        raise ValueError(
            f"target is not in the ideal-squared span at radius {max_r}")
    words = sorted({g for g, _ in beta} | {h for _, h in beta},
                   key=spec.word_key)
    nu = nu_table(spec, S, words)
    total = Fraction(0)
    for (g, h), coef in beta.items():
        rho = abs_upper(coef)
        if g == h:
            total += rho * nu[g]
        else:
            total += rho * KAPPA * (nu[g] + nu[h])
    return total


def delta_interior_shift(b: AlgebraElement, S, radius: int | None = None,
                         basis_radius: int | None = None, tol: float = 1e-7):
    """Smallest bisected C with C*Delta(S) + b exactly in the ideal cone.

    Searches C upward from 0 against augmentation-mode SDP feasibility,
    capped by laplacian_bound(b, S); brackets to relative width 2^-10
    and certifies exactly at the feasible endpoint.  ``radius`` limits
    the ideal-squared decomposition behind the cap, ``basis_radius``
    overrides the Gram basis ball.  Returns (C, SosCertificate).
    """
    spec = b.spec
    cap = laplacian_bound(b, S, radius=radius)
    delta = laplacian(spec, S)

    def basis_for(target):
        if basis_radius is not None:
            return [w for w in ball(spec, basis_radius)
                    if w != spec.identity_word]
        return gram_basis(target if target else delta, "augmentation")

    def attempt(c):
        target = delta * Fraction(c) + b
        if not target:
            return SosCertificate(target=target, squares=[],
                                  mode="augmentation")
        basis = basis_for(target)
        try:
            feas = sos_feasibility(target, basis, mode="augmentation",
                                   tol=tol)
        except sdp.SolverError:
            return None                    # conservative: push C upward
        if feas.status != "feasible" or feas.margin <= tol:
            return None
        try:
            return round_and_project(feas.gram, target, assembly=feas.assembly,
                                     mode="augmentation")
        except ProjectionError:
            return None

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

def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_div(num, den):
    """Polynomial division over Fractions; returns (quotient, remainder)."""
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        for i, dc in enumerate(den):
            num[k + i] -= c * dc
    while num and not num[-1]:
        num.pop()
    return q, num


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = _poly_div(a, b)
        a, b = b, r
    return a


def _sturm_chain(p):
    d = [i * c for i, c in enumerate(p)][1:]
    chain = [list(p), d]
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0]):
        _, r = _poly_div(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def kazhdan_constant_finite(spec: AlgebraSpec, S,
                            precision: Fraction = Fraction(1, 2 ** 30),
                            return_interval: bool = False):
    """Spectral gap of Delta(S) on the complement of invariant vectors.

    Exact rational value when the smallest positive eigenvalue is
    rational (detected through the integer characteristic polynomial);
    otherwise a certified enclosure of width < precision is computed by
    a Sturm-sequence bisection and its lower endpoint returned (or the
    whole interval with return_interval=True).
    """
    if spec.kind != "finite":
        raise ValueError("Kazhdan constants are computed for finite backends")
    S = list(S)
    delta = laplacian(spec, S)
    order = spec.order
    if order == 1:
        raise ValueError("trivial group has no nonzero modes")
    M = [[Fraction(0)] * order for _ in range(order)]
    for w, coef in delta.terms.items():
        if coef.im != 0:
            raise AssertionError("Laplacian must be real")
        for v in range(order):
            M[spec.word_mul(w, v)][v] += coef.re
    coeffs = exactla.char_poly(M, Fraction(1))
    mult0 = 0
    while mult0 <= order and not coeffs[mult0]:
        mult0 += 1
    if mult0 != 1:
        raise ValueError(
            f"S does not generate: invariant subspace has dimension {mult0}")
    reduced = coeffs[mult0:]
    square_free, _ = _poly_div(reduced, _poly_gcd(
        reduced, [i * c for i, c in enumerate(reduced)][1:]))
    chain = _sturm_chain(square_free)
    hi_all = Fraction(2 * len(S))

    def roots_upto(x):
        return _sign_changes(chain, Fraction(0)) - _sign_changes(chain, x)

    # rational roots of a monic integer polynomial are integer divisors
    const = abs(reduced[0])
    if const.denominator == 1 and const <= 10 ** 7:
        for d in sorted(k for k in range(1, int(const) + 1)
                        if int(const) % k == 0):
            if _poly_eval(reduced, Fraction(d)) == 0 \
                    and roots_upto(Fraction(d)) == 1:
                gap = Fraction(d)
                return (gap, gap, True) if return_interval else gap
    lo, hi = Fraction(0), hi_all
    while roots_upto(hi) == 0:
        hi *= 2                          # safety; cannot loop forever
        if hi > 8 * hi_all:
            raise AssertionError("lost the spectral gap enclosure")
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if roots_upto(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi, False) if return_interval else lo


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
    lo, hi, _ = kazhdan_constant_finite(spec, S, return_interval=True)
    bound = l1_norm_bound(b)
    return hi * phi_b.re < 2 * bound * phi_delta.re


# ---------------------------------------------------------------------------
# JSON fronts
# ---------------------------------------------------------------------------

def certificate_to_json(cert: SosCertificate) -> str:
    return json.dumps(cert.to_dict(), indent=1)


def certificate_from_json(text: str) -> SosCertificate:
    return SosCertificate.from_dict(json.loads(text))


def witness_to_json(wit: DualWitness) -> str:
    return json.dumps(wit.to_dict(), indent=1)


def witness_from_json(text: str) -> DualWitness:
    return DualWitness.from_dict(json.loads(text))
