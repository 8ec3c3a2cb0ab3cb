"""Primal-dual interior-point solver for hermitian margin SDPs.

Solves        maximize   lam
              subject to <A_k, X> + lam * <A_k, I> = b_k     (k = 1..m)
                         X hermitian positive semidefinite

together with its dual

              minimize   b . y
              subject to Z = sum_k y_k A_k is PSD,  sum_k y_k <A_k, I> = 1.

The margin ``lam`` measures how far the target sits inside (positive) or
outside (negative) the feasibility cone along the direction of the
identity Gram matrix.  Whenever some hermitian X0 solves the linear
system <A_k, X0> = b_k and some y gives a positive definite Z -- the
shapes produced by the Gram pipeline guarantee both -- the two problems
are strictly feasible, the central path exists, and a Mehrotra-style
predictor-corrector converges.  Everything is deterministic: fixed
starting point, no randomization.  The constraint matrices are the Gram
assembly's integer weight lists, halved in floats, which is exact
(:class:`SparseConstraints`); the iterates X, Z and the m x m Schur
complement are dense.  S is built by the constraints' sparsity (Fujisawa,
Kojima & Nakata 1997): conditions of one entry count at a time, in chunks
of at most CELLS Gram cells.

This solver produces floating-point hints; all certification happens
downstream in exact rational arithmetic.  numpy is imported inside the
functions that compute, not at module level, so the exact commands that
import this module (for :class:`SolverError`) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass

TOL = 1e-10        # relative gap and infeasibilities at convergence
LOOSE = 1e-6       # accepted on a stall: the double precision floor (the
MAX_ITER = 100     # exact certification downstream absorbs the rest)
CELLS = 2 ** 14    # Gram cells b n^2 per chunk of the Schur build


class SolverError(RuntimeError):
    """Interior-point iteration failed; carries iterate diagnostics."""

    def __init__(self, message: str, info: dict):
        detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in sorted(info.items()))
        super().__init__(f"{message} [{detail}]")
        self.info = info


@dataclass
class SdpResult:
    lam: float                 # optimal margin, or an early iterate's bound
    X: np.ndarray              # primal slack (Gram for the shifted target)
    y: np.ndarray              # dual multipliers (moment functional coords)
    iterations: int
    gap: float

    @property
    def gram(self) -> np.ndarray:
        """Gram hint for the ORIGINAL target: X + lam*I satisfies A(G)=b."""
        import numpy as np
        return self.X + self.lam * np.eye(self.X.shape[0])


def _herm(W: np.ndarray) -> np.ndarray:
    return (W + W.conj().T) / 2


def _inv_factor(M: np.ndarray):
    """inv(L) for a Cholesky factor L of M, or None when none is found.

    Near optimality M is barely definite and a bare Cholesky can fail
    from rounding; a relative jitter ladder keeps the factorization
    alive (the steps taken with it only become slightly conservative).
    """
    import numpy as np
    n = M.shape[0]
    scale = max(float(np.trace(M).real) / n, np.finfo(float).tiny)
    for k in range(7):
        jitter = 0.0 if k == 0 else scale * 10.0 ** (k - 16)
        try:
            return np.linalg.inv(np.linalg.cholesky(M + jitter * np.eye(n)))
        except np.linalg.LinAlgError:
            continue
    return None


def _max_step(Li, D: np.ndarray, tau: float = 0.98) -> float:
    """Largest alpha <= 1 keeping M + alpha*D definite; Li = _inv_factor(M)"""
    import numpy as np
    if Li is None:
        return 0.0
    W = _herm(Li @ D @ Li.conj().T)
    lo = float(np.linalg.eigvalsh(W)[0])
    if lo >= -1e-14:
        return 1.0
    return min(1.0, -tau / lo)


class SparseConstraints:
    """Hermitian n x n matrices A_0..A_{m-1} held as entry arrays.

    ``entries[k]`` lists the ``(i, j, weight)`` of A_k sorted by (i, j),
    with integer weights; A_k[i, j] is half the weight when ``parts[k]``
    is ``'H'`` and i times that half when it is ``'K'``, as
    :class:`ncsos.soscone.GramAssembly` builds them.
    """

    def __init__(self, entries, parts, n: int):
        import numpy as np
        self.n, self.m = n, len(entries)
        counts = [len(ents) for ents in entries]
        i, j, w = zip(*(e for ents in entries for e in ents))
        self.k = np.repeat(np.arange(self.m), counts)
        i, j, w = np.array(i), np.array(j), np.array(w, float) / 2
        imag = np.repeat([part == "K" for part in parts], counts)
        v = np.where(imag, 0.0, w) + 1j * np.where(imag, w, 0.0)
        self.trace = np.bincount(self.k, v.real * (i == j), minlength=self.m)
        self.sq_norms = np.bincount(self.k, w * w, minlength=self.m)
        # the entries read W as floats: Re W[j, i] times the half-weight
        # (H), or Im W[j, i] times minus it (K)
        self.flat, self.wt = (j * n + i) * 2 + imag, np.where(imag, -w, w)
        # the Schur build's chunks: at most CELLS / n^2 conditions of one
        # entry count c, with the (i, j, value) of their entries as b x c
        start, count = np.cumsum([0] + counts), np.array(counts)
        per = max(1, min(self.m, CELLS // (n * n)))
        self.chunks = [(rows, i[at], j[at], v[at]) for c in sorted(set(counts))
                       for ls in [np.flatnonzero(count == c)]
                       for s in range(0, len(ls), per)
                       for rows in [ls[s:s + per]]
                       for at in [start[rows, None] + np.arange(c)]]
        self.bins = self.k + self.m * np.arange(per)[:, None]

    def apply(self, W: np.ndarray) -> np.ndarray:
        """A(W)_k = Re tr(A_k W), which is <A_k, W> for hermitian W."""
        import numpy as np
        Wf = np.asarray(W, dtype=complex).reshape(-1).view(float)
        return np.bincount(self.k, Wf[self.flat] * self.wt, minlength=self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_k y_k A_k, summed where :meth:`apply` reads: at
        [j, i] that is conj A*(y)[i, j], which is A*(y)[j, i]."""
        import numpy as np
        out = np.bincount(self.flat, y[self.k] * self.wt,
                          minlength=2 * self.n * self.n)
        return out.view(complex).reshape(self.n, self.n)

    def schur(self, X: np.ndarray, Zi: np.ndarray) -> np.ndarray:
        """S_kl = Re tr(X A_k Zi A_l); row l is A(W_l), W_l = Zi A_l X.

        W_l sums v * Zi[:, i] X[j, :] over the entries (i, j, v) of A_l:
        per chunk one batched product of gathered columns and rows, and
        one bincount of the W_l read as :meth:`apply` reads them.
        """
        import numpy as np
        S = np.empty((self.m, self.m))
        for rows, I, J, V in self.chunks:
            b = len(rows)
            W = np.matmul((Zi[:, I] * V).transpose(1, 0, 2), X[J, :])
            G = W.reshape(b, -1).view(float)[:, self.flat]
            G *= self.wt
            S[rows] = np.bincount(self.bins[:b].ravel(), G.ravel(),
                                  minlength=b * self.m).reshape(b, self.m)
        return (S + S.T) / 2


def solve_margin_sdp(A: SparseConstraints, b, accept=None) -> SdpResult:
    """Run the predictor-corrector iteration on the margin problem.

    A              : the m constraint matrices
    b              : length-m real vector of constraint values
    accept         : optional exact check of an early iterate, called at
                     most once per side: on the first iterate whose X is
                     primal feasible with lam > TOL, handed over with lam
                     as it stands (a lower bound on the margin), and on
                     the first whose y is dual feasible with b . y < -TOL,
                     handed over with lam = b . y (by weak duality an
                     upper bound).  When it returns true that iterate is
                     the result; else the solve goes on.
    """
    import numpy as np
    b = np.asarray(b, dtype=float)
    m = len(b)
    if m == 0:
        raise ValueError("no constraints; decide trivially upstream")
    n, t = A.n, A.trace
    if not np.any(np.abs(t) > 1e-14):
        raise ValueError("all constraints are traceless; margin undefined")
    a_of, a_adj = A.apply, A.adjoint

    scale = max(1.0, float(np.max(np.abs(b))))
    anorm = max(1.0, float(np.sqrt(np.max(A.sq_norms))))

    X = scale * np.eye(n, dtype=complex)
    Z = anorm * np.eye(n, dtype=complex)
    y = np.zeros(m)
    lam = 0.0

    stalls = 0
    tried = set()                   # the sides accept has seen, +1 and -1
    info: dict = {}
    for it in range(MAX_ITER):
        gap = float(np.einsum("ij,ji->", X, Z).real)
        mu = gap / n
        r_p = b - a_of(X) - lam * t
        R_d = a_adj(y) - Z
        r_t = 1.0 - float(t @ y)
        pinf = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b)))
        dinf = float(np.linalg.norm(R_d)) / anorm
        info = {"iterations": it, "gap": gap, "mu": mu, "pinf": pinf,
                "dinf": dinf, "r_t": abs(r_t), "lam": lam}
        by = float(b @ y)
        rel_gap = gap / (1.0 + abs(lam) + abs(by))
        info["rel_gap"] = rel_gap
        if rel_gap < TOL and pinf < TOL and dinf < TOL and abs(r_t) < TOL:
            return SdpResult(lam=lam, X=X, y=y, iterations=it, gap=gap)
        side = 1 if lam > TOL and pinf < TOL else \
            -1 if by < -TOL and dinf < TOL and abs(r_t) < TOL else 0
        if accept is not None and side and side not in tried:
            tried.add(side)
            early = SdpResult(lam=lam if side > 0 else by, X=X, y=y,
                              iterations=it, gap=gap)
            if accept(early):
                return early
        if stalls >= 3 or it == MAX_ITER - 1:
            if rel_gap < LOOSE and pinf < LOOSE and dinf < LOOSE \
                    and abs(r_t) < LOOSE:
                return SdpResult(lam=lam, X=X, y=y, iterations=it, gap=gap)
            raise SolverError("step lengths collapsed" if stalls >= 3
                              else "no convergence within iteration budget",
                              info)

        try:
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError:
            raise SolverError("dual slack became singular", info) from None
        Zi = _herm(Zi)

        # Schur complement M_kl = <A_k, H(Zi A_l X)> = Re tr(X A_k Zi A_l)
        S = A.schur(X, Zi)
        K = np.zeros((m + 1, m + 1))
        K[:m, :m] = S
        K[:m, m] = -t
        K[m, :m] = t

        def direction(mu_target, corr):
            G0 = mu_target * Zi - X - _herm(Zi @ R_d @ X) - corr
            rhs = np.concatenate([a_of(G0) - r_p, [r_t]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            dy, dlam = sol[:m], float(sol[m])
            dZ = a_adj(dy) + R_d
            dX = G0 - _herm(Zi @ a_adj(dy) @ X)
            return _herm(dX), float(dlam), dy, _herm(dZ)

        # predictor (affine scaling); both step searches share one factor
        LXi, LZi = _inv_factor(X), _inv_factor(Z)
        dXa, dlama, dya, dZa = direction(0.0, 0.0)
        ap = _max_step(LXi, dXa, tau=1.0)
        ad = _max_step(LZi, dZa, tau=1.0)
        gap_aff = float(np.einsum(
            "ij,ji->", X + ap * dXa, Z + ad * dZa).real)
        sigma = min(0.8, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector
        corr = _herm(Zi @ dZa @ dXa)
        dX, dlam, dy, dZ = direction(sigma * mu, corr)
        ap = _max_step(LXi, dX)
        ad = _max_step(LZi, dZ)

        X = _herm(X + ap * dX)
        lam += ap * dlam
        y = y + ad * dy
        Z = _herm(Z + ad * dZ)

        if max(ap, ad) < 1e-7:
            stalls += 1
        else:
            stalls = 0

    raise SolverError("no convergence within iteration budget", info)
