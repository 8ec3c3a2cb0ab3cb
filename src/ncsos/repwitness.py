"""Finite-dimensional representation witnesses from positive functionals.

A negative-value dual functional becomes a concrete finite-dimensional
representation: build the inner-product space generated by short words
(dropping null vectors), compress the generator actions onto it, dilate
each compression to a unitary of doubled size, and evaluate the target
there.  The evaluation reproduces the functional's value, so a negative
number falls out of explicit matrices that anyone can replay with matrix
products alone.  That is floating point, so numpy is imported inside each
function that computes or reads the matrices, not at module level: the
exact commands import this module without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groupalg import (
    AlgebraElement,
    AlgebraSpec,
    ball,
    element_from_dict,
    element_to_dict,
)
from .exactla import ldlt_psd_qc, unit_lower_inverse
from .qc import QC
from .soscone import CoverageError, DualWitness, default_radius

NULL_TOL = 1e-9          # relative eigenvalue threshold for null modes
CONTRACTION_TOL = 1e-9   # singular values may exceed 1 by at most this
UNITARITY_TOL = 1e-8
REPLAY_TOL = 1e-10


def _evaluate(target: AlgebraElement, gens, state) -> complex:
    """<state, target(gens) state>: a word acts as the product of its
    letters' generator matrices, starred letters by the adjoint."""
    import numpy as np
    state = np.asarray(state, dtype=complex)
    gens = [np.asarray(G, dtype=complex) for G in gens]
    val = 0.0 + 0.0j
    for w, cf in target.terms.items():
        M = np.eye(len(state), dtype=complex)
        for i, starred in map(target.spec.letter, w):
            M = M @ (gens[i].conj().T if starred else gens[i])
        val += complex(cf) * np.vdot(state, M @ state)
    return val


# ---------------------------------------------------------------------------
# inner-product space from moment data
# ---------------------------------------------------------------------------

def _orthonormal_frame(Kq, K):
    """Frame and coordinate data for a hermitian moment matrix given
    exactly, as :func:`ldlt_psd_qc` takes it, and in floats (K).

    The positive-semidefiniteness decision is always exact (rational
    LDL*).  When the positive pivots are well separated from zero, the
    frame comes from the exact factor as well: one square root per pivot
    is the only rounding, so dyadic moment data produces exactly
    representable frames, coordinates and states.  Nearly degenerate
    moments fall back to an eigendecomposition with a relative cutoff.

    Returns ``(frame, coords)``.
    """
    import numpy as np
    ok, factor, _ = ldlt_psd_qc(Kq)
    if not ok:
        raise ValueError("moment matrix is not positive semidefinite")
    dvec, L = factor.ldl(QC)
    n = len(K)
    pos = [k for k in range(n) if dvec[k] > 0]
    dmax = max((dvec[k] for k in pos), default=Fraction(0))
    well_separated = pos and (
        min(dvec[k] for k in pos) * 10**6 >= max(Fraction(1), dmax))
    if well_separated:
        Y = unit_lower_inverse(L)
        frame = np.zeros((n, len(pos)), dtype=complex)
        coords = np.zeros((len(pos), n), dtype=complex)
        for c, k in enumerate(pos):
            r = float(dvec[k]) ** 0.5
            for j in range(n):
                frame[j, c] = complex(Y[k][j].conjugate()) / r
                coords[c, j] = r * complex(L[j][k].conjugate())
        return frame, coords
    lam, Q = np.linalg.eigh((K + K.conj().T) / 2.0)
    top = max(1.0, float(lam.max(initial=0.0)))
    keep = lam > NULL_TOL * top
    if not keep.any():
        return np.zeros((n, 0), dtype=complex), np.zeros((0, n), dtype=complex)
    frame = Q[:, keep] / np.sqrt(lam[keep])
    coords = frame.conj().T @ K
    return frame, coords


@dataclass
class GnsSpace:
    """Span of short-word classes under the functional's inner product.

    moment[i, j] is the normalized value at basis_words[i]* basis_words[j];
    frame maps orthonormal coordinates back to word coefficients, and
    word_coords holds the coordinate vector of each basis word's class.
    Null directions (zero-length vectors) are split off, so dim can fall
    below the basis size.
    """

    spec: AlgebraSpec
    basis_words: list
    moment: np.ndarray
    frame: np.ndarray
    word_coords: np.ndarray
    word_values: dict

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def state(self) -> np.ndarray:
        """Coordinates of the identity class (a unit vector)."""
        e = self.spec.identity_word
        return self.word_coords[:, self.basis_words.index(e)].copy()


def gns_from_moment(phi: DualWitness, d: int) -> GnsSpace:
    """Inner-product space on word classes of length at most d.

    The functional is normalized so that the identity evaluates to 1;
    the class of the identity is then a unit vector.  Directions of
    length zero are dropped.
    """
    import numpy as np
    if phi.mode != "full":
        raise ValueError("representation spaces need a full-mode functional")
    spec = phi.spec
    values, _ = phi.integer_values()
    # phi(w)/phi(e) = (re + i im)/scale for values[w] = (re, im)
    scale, im_e = values.get(spec.identity_word, (0, 0))
    if im_e != 0 or scale <= 0:
        raise ValueError("functional is not a state: value at identity "
                         "must be a positive real")

    basis = ball(spec, d)
    if not set(basis) <= set(phi.basis):
        raise ValueError(f"functional basis does not cover the radius-{d} "
                         "ball")
    try:
        M = [[values[spec.word_mul(spec.word_star(u), v)] for v in basis]
             for u in basis]
    except KeyError as exc:
        raise CoverageError(
            f"missing functional value at {exc.args[0]!r}") from None
    if any(M[j][i] != (re, -im) for i, row in enumerate(M)
           for j, (re, im) in enumerate(row)):
        raise ValueError("moment matrix is not hermitian")
    Kq = (*([[z[p] for z in row] for row in M] for p in (0, 1)), scale)
    K = np.array([[complex(re / scale, im / scale) for re, im in row]
                  for row in M])
    frame, coords = _orthonormal_frame(Kq, K)
    if frame.shape[1] == 0:
        raise ValueError("trivial space: functional vanishes on the ball")
    space = GnsSpace(spec=spec, basis_words=list(basis), moment=K,
                     frame=frame, word_coords=coords,
                     word_values={w: complex(re / scale, im / scale)
                                  for w, (re, im) in values.items()
                                  if spec.word_len(w) <= 2 * d + 1})
    gram = coords.conj().T @ coords
    if np.abs(gram - K).max() > 1e-8 * max(1.0, float(np.abs(K).max())):
        raise RuntimeError("orthonormal frame does not reproduce the moment")
    return space


def compressions(space: GnsSpace):
    """Compressed generator actions on the truncated space.

    Entries come from functional values at u* g v, so the data must
    extend one step past the space's radius.  Each compression is a
    contraction; singular values within tolerance of 1 are clipped.
    """
    import numpy as np
    spec = space.spec
    F = space.frame
    out = []
    for g in spec.generators():
        n = len(space.basis_words)
        T = np.zeros((n, n), dtype=complex)
        for i, u in enumerate(space.basis_words):
            left = spec.word_mul(spec.word_star(u), g)
            for j, v in enumerate(space.basis_words):
                w = spec.word_mul(left, v)
                z = space.word_values.get(w)
                if z is None:
                    raise CoverageError(
                        "functional values do not reach one step past the "
                        f"space (missing {w!r})")
                T[i, j] = z
        M = F.conj().T @ T @ F
        U, s, Vh = np.linalg.svd(M)
        if s.max(initial=0.0) > 1.0 + CONTRACTION_TOL:
            raise ValueError("compression is not a contraction "
                             f"(singular value {s.max():.3e})")
        if s.max(initial=0.0) > 1.0:
            M = U @ np.diag(np.minimum(s, 1.0)) @ Vh
        out.append(M)
    return out


def choi_dilation(M) -> np.ndarray:
    """Unitary of doubled size whose upper-left block is M.

    The off-diagonal blocks are the square roots of I - M M* and
    I - M* M; both are taken through M's singular value decomposition so
    that the block identities cancel at machine precision instead of at
    the square root of it.  Singular values within tolerance above 1 are
    clamped; larger ones are an error.
    """
    import numpy as np
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("dilation needs a square matrix")
    W, s, Vh = np.linalg.svd(M)
    if s.max(initial=0.0) > 1.0 + CONTRACTION_TOL:
        raise ValueError(f"matrix norm {s.max():.6f} exceeds 1")
    s = np.minimum(s, 1.0)
    M = W @ np.diag(s) @ Vh
    c = np.sqrt(1.0 - s * s)
    m = M.shape[0]
    U = np.block([[M, (W * c) @ W.conj().T],
                  [(Vh.conj().T * c) @ Vh, -M.conj().T]])
    if np.abs(U.conj().T @ U - np.eye(2 * m)).max() > UNITARITY_TOL:
        raise RuntimeError("dilation failed the unitarity check")
    return U


# ---------------------------------------------------------------------------
# refutation witnesses
# ---------------------------------------------------------------------------

@dataclass
class UnitaryRepWitness:
    """Explicit representation data showing the target takes a negative
    value: generator images, a unit state vector, and the evaluation.

    For group backends the generator images are unitary; for free
    *-algebras they are the (hermitian, when letters are hermitian)
    compressions themselves.
    """

    generators: list
    state: np.ndarray
    value: float
    target: AlgebraElement

    def rationals(self):
        """Every rational the witness carries: the target's coefficients
        (generators, state and value are floating point)."""
        return self.target.terms.values()

    def to_dict(self) -> dict:
        import numpy as np
        return {
            "generators": [[[_pair(z) for z in row] for row in np.asarray(G)]
                           for G in self.generators],
            "state": [_pair(z) for z in np.asarray(self.state)],
            "value": self.value,
            "target": element_to_dict(self.target),
        }

    @staticmethod
    def from_dict(d: dict) -> "UnitaryRepWitness":
        import numpy as np
        return UnitaryRepWitness(
            generators=[np.array([[complex(re, im) for re, im in row]
                                  for row in G], dtype=complex)
                        for G in d["generators"]],
            state=np.array([complex(re, im) for re, im in d["state"]],
                           dtype=complex),
            value=float(d["value"]),
            target=element_from_dict(d["target"]),
        )


def _pair(z) -> list:
    """A complex number as its JSON pair [re, im]."""
    return [float(z.real), float(z.imag)]


def refutation_witness(b: AlgebraElement, phi: DualWitness) -> UnitaryRepWitness:
    """Matrix refutation of b from a dual functional with phi(b) < 0.

    The space is the ball of radius s = ceil(d/2), d the longest word
    in b, and the functional must carry values one step further
    (products of length 2s + 1).  Every word w of b splits as p v with
    |p|, |v| <= s, and each generator step of U_v on the state stays in
    the ball, where the compression is isometric, so
    <state, U_w state> = <U_p* state, U_v state> = phi(w).  Group
    generators are dilated to unitaries; free *-algebra generators stay
    as compressions.  The evaluation agrees with the normalized
    functional value within 1e-6 relative + 1e-9 absolute error.
    """
    import numpy as np
    spec = b.spec
    if not spec.relation_free:
        raise ValueError("refutation witnesses need a free group or free "
                         "*-algebra backend")
    if not b.terms:
        raise ValueError("target is zero")
    space = gns_from_moment(phi, default_radius(b, "full"))
    expected = 0.0 + 0.0j
    for w, cf in b.terms.items():
        z = space.word_values.get(w)
        if z is None:
            raise CoverageError(f"missing functional value at {w!r}")
        expected += complex(cf) * z
    if abs(expected.imag) > 1e-9 or expected.real >= 0:
        raise ValueError("functional does not refute the target "
                         f"(value {expected:.3e})")

    Ms = compressions(space)
    if spec.is_group():
        gens = [choi_dilation(M) for M in Ms]
        state = np.concatenate([space.state,
                                np.zeros(space.dim, dtype=complex)])
    else:
        gens = [np.asarray(M) for M in Ms]
        state = space.state

    val = _evaluate(b, gens, state)
    if abs(val.imag) > UNITARITY_TOL:
        raise RuntimeError("evaluation is not real; hermitian data expected")
    value = float(val.real)
    if abs(value - expected.real) > 1e-6 * abs(expected.real) + 1e-9:
        raise RuntimeError("dilated evaluation drifted from the functional "
                           f"({value:.3e} vs {expected.real:.3e})")
    return UnitaryRepWitness(generators=gens, state=state, value=value,
                             target=b)


def replay_witness_value(wit: UnitaryRepWitness) -> float:
    """Recompute the stored value with matrix products only."""
    return float(_evaluate(wit.target, wit.generators, wit.state).real)


def verify_unitary_witness(wit: UnitaryRepWitness) -> bool:
    """Independent check: a free group or free *-algebra target, one square
    generator per rank sized as the state, shape, normalization, replay."""
    import numpy as np
    spec = wit.target.spec
    gens = [np.asarray(G, dtype=complex) for G in wit.generators]
    state = np.asarray(wit.state, dtype=complex)
    if not spec.relation_free or len(gens) != spec.rank or \
            any(G.shape != (len(state),) * 2 for G in gens):
        return False
    for G in gens:
        if spec.is_group():
            if np.abs(G.conj().T @ G - np.eye(G.shape[0])).max() > UNITARITY_TOL:
                return False
        else:
            s = np.linalg.svd(G, compute_uv=False)
            if s.max(initial=0.0) > 1.0 + 1e-6:
                return False
            if spec.hermitian and np.abs(G - G.conj().T).max() > UNITARITY_TOL:
                return False
    if abs(np.vdot(state, state).real - 1.0) > 1e-6:
        return False
    if abs(replay_witness_value(wit) - wit.value) > REPLAY_TOL:
        return False
    return wit.value < 0
