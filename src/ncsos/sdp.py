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
starting point, no randomization.  The constraint matrices are sparse
entry lists (:class:`SparseConstraints`); the iterates X, Z and the m x m
Schur complement are dense.

This solver produces floating-point hints; all certification happens
downstream in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SolverError(RuntimeError):
    """Interior-point iteration failed; carries iterate diagnostics."""

    def __init__(self, message: str, info: dict):
        detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in sorted(info.items()))
        super().__init__(f"{message} [{detail}]")
        self.info = info


@dataclass
class SdpResult:
    lam: float                 # optimal margin
    X: np.ndarray              # primal slack (Gram for the shifted target)
    y: np.ndarray              # dual multipliers (moment functional coords)
    Z: np.ndarray              # dual slack = sum_k y_k A_k
    iterations: int
    gap: float
    primal_infeas: float
    dual_infeas: float

    @property
    def gram(self) -> np.ndarray:
        """Gram hint for the ORIGINAL target: X + lam*I satisfies A(G)=b."""
        return self.X + self.lam * np.eye(self.X.shape[0])


def _herm(W: np.ndarray) -> np.ndarray:
    return (W + W.conj().T) / 2


def _max_step(M: np.ndarray, D: np.ndarray, tau: float = 0.98) -> float:
    """Largest safe alpha <= 1 with M + alpha*D still positive definite.

    Near optimality M is barely definite and a bare Cholesky can fail
    from rounding; a relative jitter ladder keeps the factorization
    alive (the resulting step only becomes slightly conservative).
    """
    n = M.shape[0]
    scale = max(float(np.trace(M).real) / n, np.finfo(float).tiny)
    L = None
    for k in range(7):
        jitter = 0.0 if k == 0 else scale * 10.0 ** (k - 16)
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        return 0.0
    Li = np.linalg.inv(L)
    W = _herm(Li @ D @ Li.conj().T)
    lo = float(np.linalg.eigvalsh(W)[0])
    if lo >= -1e-14:
        return 1.0
    return min(1.0, -tau / lo)


class SparseConstraints:
    """Hermitian n x n matrices A_0..A_{m-1} held as entry arrays.

    ``entries`` lists ``(k, i, j, value)`` with A_k[i, j] = value; absent
    entries are zero and each (k, i, j) appears at most once.
    """

    def __init__(self, entries, n: int, m: int):
        k, i, j, v = (np.asarray(a) for a in zip(*entries))
        o = np.lexsort((j, i, k))
        self.k, self.i, self.j, self.v = k[o], i[o], j[o], v[o] + 0j
        self.n, self.m = n, m
        # the entries of A_k occupy the slice start[k]:start[k + 1]
        self.start = np.searchsorted(self.k, np.arange(m + 1))
        t = np.lexsort((self.i, self.j, self.k))    # the transposed order
        if not (np.array_equal(self.i[t], self.j) and np.array_equal(
                self.j[t], self.i) and np.allclose(self.v[t].conj(), self.v,
                                                   rtol=0, atol=1e-12)):
            raise ValueError("constraint matrices must be hermitian")
        diag = self.i == self.j
        self.trace = np.bincount(self.k[diag], self.v[diag].real,
                                 minlength=m)
        self.sq_norms = np.bincount(self.k, abs(self.v) ** 2, minlength=m)

    def apply(self, W: np.ndarray) -> np.ndarray:
        """A(W)_k = Re tr(A_k W), which is <A_k, W> for hermitian W."""
        return np.bincount(self.k, (self.v * W[self.j, self.i]).real,
                           minlength=self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_k y_k A_k."""
        w = y[self.k] * self.v
        flat = self.i * self.n + self.j
        size = self.n * self.n
        out = np.bincount(flat, w.real, minlength=size) \
            + 1j * np.bincount(flat, w.imag, minlength=size)
        return out.reshape(self.n, self.n)

    def schur(self, X: np.ndarray, Zi: np.ndarray) -> np.ndarray:
        """S_kl = Re tr(X A_k Zi A_l); column l is A(Zi A_l X).

        Zi A_l X sums v * Zi[:, i] X[j, :] over the entries (i, j, v) of
        A_l: one small product of gathered columns and rows per l.
        """
        left = Zi[:, self.i] * self.v
        right = X[self.j, :]
        S = np.empty((self.m, self.m))
        for l in range(self.m):
            f = slice(self.start[l], self.start[l + 1])
            S[:, l] = self.apply(left[:, f] @ right[f, :])
        return (S + S.T) / 2


def solve_margin_sdp(entries, n: int, b, tol: float = 1e-10,
                     max_iter: int = 100) -> SdpResult:
    """Run the predictor-corrector iteration on the margin problem.

    entries : ``(k, i, j, value)`` entries of m hermitian n x n matrices
    b       : length-m real vector of constraint values
    """
    b = np.asarray(b, dtype=float)
    m = len(b)
    if m == 0:
        raise ValueError("no constraints; decide trivially upstream")
    A = SparseConstraints(entries, n, m)
    t = A.trace
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
    info: dict = {}
    loose = max(tol, 1e-6)                 # double precision floor; exact
    for it in range(max_iter):             # certification absorbs the rest
        gap = float(np.einsum("ij,ji->", X, Z).real)
        mu = gap / n
        r_p = b - a_of(X) - lam * t
        R_d = a_adj(y) - Z
        r_t = 1.0 - float(t @ y)
        pinf = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(b)))
        dinf = float(np.linalg.norm(R_d)) / anorm
        info = {"iterations": it, "gap": gap, "mu": mu, "pinf": pinf,
                "dinf": dinf, "r_t": abs(r_t), "lam": lam}
        rel_gap = gap / (1.0 + abs(lam) + abs(float(b @ y)))
        info["rel_gap"] = rel_gap
        if rel_gap < tol and pinf < tol and dinf < tol and abs(r_t) < tol:
            return SdpResult(lam=lam, X=X, y=y, Z=Z, iterations=it, gap=gap,
                             primal_infeas=pinf, dual_infeas=dinf)
        if stalls >= 3 or it == max_iter - 1:
            if rel_gap < loose and pinf < loose and dinf < loose \
                    and abs(r_t) < loose:
                return SdpResult(lam=lam, X=X, y=y, Z=Z, iterations=it,
                                 gap=gap, primal_infeas=pinf, dual_infeas=dinf)
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

        # predictor (affine scaling)
        dXa, dlama, dya, dZa = direction(0.0, 0.0)
        ap = _max_step(X, dXa, tau=1.0)
        ad = _max_step(Z, dZa, tau=1.0)
        gap_aff = float(np.einsum(
            "ij,ji->", X + ap * dXa, Z + ad * dZa).real)
        sigma = min(0.8, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # corrector
        corr = _herm(Zi @ dZa @ dXa)
        dX, dlam, dy, dZ = direction(sigma * mu, corr)
        ap = _max_step(X, dX)
        ad = _max_step(Z, dZ)

        X = _herm(X + ap * dX)
        lam += ap * dlam
        y = y + ad * dy
        Z = _herm(Z + ad * dZ)

        if max(ap, ad) < 1e-7:
            stalls += 1
        else:
            stalls = 0

    raise SolverError("no convergence within iteration budget", info)
