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
    """The matrix handed to Factorization produced a nonpositive pivot, or
    the operator handed to cg_self_adjoint a nonpositive curvature."""


class BlockFactorizationError(Exception):
    """SuperLU could not factor the Newton block system, for example
    because a pivot is exactly zero."""


class CgNoConvergenceError(Exception):
    """cg_self_adjoint did not reach its tolerance within max_iter."""


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


def solve_block_newton(
    a_mat: sp.spmatrix,
    m_mat: sp.spmatrix,
    k_ff: sp.spmatrix,
    free: np.ndarray,
    alpha: float,
    rhs: np.ndarray,
    node_order: np.ndarray,
) -> np.ndarray:
    """Solve (Id + P E G R P) y = rhs for y via the sparse block system.

    The composition of the Helmholtz solves P = (K+M)^{-1} M (scaled by
    1/alpha) and the constrained Dirichlet solve G is decomposed with
    auxiliary variables a = P y, w = G a, b = P (extension of w):

        (K+M) a + (1/alpha) M b = M rhs
        K_ff w  - (M a)|_free   = 0
        (K+M) b - M E w         = 0

    after eliminating y = rhs - b/alpha.  Returns y.

    The unknowns (a, w, b) of each node are numbered next to each other,
    node by node in node_order (a fill-reducing ordering of the mesh
    nodes, such as Mesh.nested_dissection).  Every 3x3 node block is
    nonsingular and the system is factored without pivoting in that
    order, so the factors keep the sparsity of the ordering.
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
        format="coo",
    )
    # sort the unknowns by (rank of their node in node_order, a < w < b);
    # perm[k] is the unknown placed at position k, pos its inverse
    rank = np.empty(nw, dtype=int)
    rank[node_order] = np.arange(nw)
    perm = np.argsort(np.concatenate([3 * rank, 3 * rank[free] + 1, 3 * rank + 2]))
    pos = np.argsort(perm)
    block = sp.csc_matrix((block.data, (pos[block.row], pos[block.col])), shape=block.shape)
    full_rhs = np.concatenate([m_csr @ rhs, np.zeros(nf), np.zeros(nw)])
    try:
        lu = spla.splu(
            block,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise BlockFactorizationError(f"Newton block system: {exc}") from exc
    b = lu.solve(full_rhs[perm])[pos[nw + nf :]]
    return rhs - b / alpha


def cg_self_adjoint(apply_op, rhs: np.ndarray, inner, tol: float = 1e-13,
                    max_iter: int = 20000) -> np.ndarray:
    """Conjugate gradients for an operator self-adjoint and positive
    definite in the given inner product.  Used as the matrix-free
    cross-check of solve_block_newton.

    Stops when the residual norm is at most tol times that of rhs.
    Raises CgNoConvergenceError after max_iter iterations without that,
    and NotPositiveDefiniteError on a direction of nonpositive curvature."""
    x = np.zeros_like(rhs)
    r = rhs - apply_op(x)
    p = r.copy()
    rr = inner(r, r)
    stop = tol * tol * max(inner(rhs, rhs), 1e-300)
    it = 0
    while not rr <= stop:  # a NaN residual goes on to fail below
        if it == max_iter:
            raise CgNoConvergenceError(
                f"residual {np.sqrt(rr):.3e} above {np.sqrt(stop):.3e} "
                f"after {max_iter} iterations"
            )
        ap = apply_op(p)
        curvature = inner(p, ap)
        if not curvature > 0.0:  # also NaN
            raise NotPositiveDefiniteError(
                f"CG iteration {it}: nonpositive curvature {curvature:.3e}"
            )
        a_step = rr / curvature
        x += a_step * p
        r -= a_step * ap
        rr_new = inner(r, r)
        p = r + (rr_new / rr) * p
        rr = rr_new
        it += 1
    return x
