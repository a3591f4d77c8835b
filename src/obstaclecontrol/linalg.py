"""Sparse direct solves for the SPD systems of the solver pipeline.

A thin wrapper around SuperLU.  For symmetric positive definite input we
run the factorization in symmetric mode with diagonal pivoting disabled,
which makes it behave like a Cholesky factorization and lets us detect
indefinite matrices through nonpositive pivots.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class NotPositiveDefiniteError(Exception):
    """The matrix handed to factorize() produced a nonpositive pivot."""


class Factorization:
    """Reusable direct factorization of a sparse SPD matrix."""

    def __init__(self, a: sp.spmatrix):
        a = a.tocsc()
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.shape = a.shape
        if a.shape[0] == 0:
            self._lu = None
            return
        try:
            self._lu = spla.splu(
                a,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(str(exc)) from exc
        if np.any(self._lu.U.diagonal() <= 0.0):
            raise NotPositiveDefiniteError("nonpositive pivot encountered")

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.shape[0],):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.shape[0]},)")
        if self._lu is None:
            return b.copy()
        return self._lu.solve(b)


def factorize(a: sp.spmatrix) -> Factorization:
    """Factor a sparse symmetric positive definite matrix."""
    return Factorization(a)


def solve_block_newton(
    a_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
    k_ff: sp.spmatrix,
    free: np.ndarray,
    alpha: float,
    rhs: np.ndarray,
) -> np.ndarray:
    """Solve (Id + P E G R P) y = rhs for y via the sparse block system.

    The composition of the Helmholtz solves P = (K+M)^{-1} M (scaled by
    1/alpha) and the constrained Dirichlet solve G is decomposed with
    auxiliary variables a = P y, w = G a, b = P (extension of w):

        (K+M) a + (1/alpha) M b = M rhs
        K_ff w  - (M a)|_free   = 0
        (K+M) b - M E w         = 0

    after eliminating y = rhs - b/alpha.  Returns y.
    """
    free = np.asarray(free, dtype=int)
    nw = a_mat.shape[0]
    nf = free.size
    if nf == 0:
        # G vanishes, the operator is the identity
        return np.asarray(rhs, dtype=float).copy()

    m_csr = m_mat.tocsr()
    ext = sp.csr_matrix(
        (np.ones(nf), (free, np.arange(nf))), shape=(nw, nf)
    )  # zero-extension of the free unknowns
    block = sp.bmat(
        [
            [a_mat, None, m_csr / alpha],
            [-m_csr[free, :], k_ff, None],
            [None, -(m_csr @ ext), a_mat],
        ],
        format="csc",
    )
    full_rhs = np.concatenate([m_csr @ rhs, np.zeros(nf), np.zeros(nw)])
    lu = spla.splu(block)
    sol = lu.solve(full_rhs)
    b = sol[nw + nf :]
    return rhs - b / alpha


def cg_self_adjoint(apply_op, rhs: np.ndarray, inner, tol: float = 1e-13,
                    max_iter: int = 20000) -> np.ndarray:
    """Conjugate gradients for an operator self-adjoint and positive
    definite in the given inner product.  Used as the matrix-free
    cross-check of solve_block_newton."""
    x = np.zeros_like(rhs)
    r = rhs - apply_op(x)
    p = r.copy()
    rr = inner(r, r)
    stop = tol * tol * max(inner(rhs, rhs), 1e-300)
    for _ in range(max_iter):
        if rr <= stop:
            break
        ap = apply_op(p)
        a_step = rr / inner(p, ap)
        x += a_step * p
        r -= a_step * ap
        rr_new = inner(r, r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x
