"""Sparse direct solves for the SPD systems of the solver pipeline.

A thin wrapper around SuperLU.  For symmetric positive definite input we
run the factorization in symmetric mode with diagonal pivoting disabled,
which makes it behave like a Cholesky factorization and lets us detect
indefinite matrices through nonpositive pivots.
"""

from typing import NamedTuple

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


class BlockPattern(NamedTuple):
    """The Newton block system of solve_block_newton with every interior
    node free, in the order in which it is factored.

    The unknowns (a, w, b) of each node are numbered next to each other,
    a < w < b, node by node in a fill-reducing order of the mesh nodes
    (such as Mesh.nested_dissection); boundary nodes have no w.  matrix
    is the system at alpha = 1 in canonical CSC form, with its entries
    sorted by column, then row.  The solve drops the w-unknowns of the
    constrained nodes and scales the entries marked in `scaled`, the
    block M/alpha, by 1/alpha.
    """

    matrix: sp.csc_matrix
    scaled: np.ndarray  # bool per entry of matrix
    mass: sp.csr_matrix  # M, which maps the right-hand side
    a_pos: np.ndarray  # position of the a-unknown of each node
    w_pos: np.ndarray  # position of the w-unknown of each interior node
    b_pos: np.ndarray  # position of the b-unknown of each node


def principal_submatrix(a: sp.csc_matrix, keep: np.ndarray):
    """Principal submatrix of a canonical CSC matrix on the unknowns
    where keep is True, and the mask of the entries of a it holds.

    Dropping unknowns keeps the order of the others, so the submatrix is
    canonical as well.  Explicit zeros are kept: they are part of the
    pattern that a fill-reducing ordering sees."""
    index = np.cumsum(keep, dtype=np.int32) - 1
    size = int(np.count_nonzero(keep))
    col = np.repeat(np.arange(keep.size, dtype=np.int32), np.diff(a.indptr))
    entries = keep[col] & keep[a.indices]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(index[col[entries]], minlength=size), out=indptr[1:])
    sub = sp.csc_matrix(
        (a.data[entries], index[a.indices[entries]], indptr), shape=(size, size)
    )
    return sub, entries


def solve_block_newton(
    pattern: BlockPattern, free: np.ndarray, alpha: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (Id + P E G R P) y = rhs for y via the sparse block system.

    The composition of the Helmholtz solves P = (K+M)^{-1} M (scaled by
    1/alpha) and the constrained Dirichlet solve G on the free interior
    nodes (local interior indices) is decomposed with auxiliary
    variables a = P y, w = G a, b = P (extension of w):

        (K+M) a + (1/alpha) M b = M rhs
        K_ff w  - (M a)|_free   = 0
        (K+M) b - M E w         = 0

    after eliminating y = rhs - b/alpha.  Returns y.

    The system is cut out of the pattern, so it keeps the pattern's node
    order.  Every 3x3 node block is nonsingular and the system is
    factored without pivoting in that order, so the factors keep the
    sparsity of the ordering.
    """
    if free.size == 0:
        # G vanishes, the operator is the identity
        return np.asarray(rhs, dtype=float).copy()

    keep = np.ones(pattern.matrix.shape[0], dtype=bool)
    keep[pattern.w_pos] = False
    keep[pattern.w_pos[free]] = True
    block, entries = principal_submatrix(pattern.matrix, keep)
    block.data[pattern.scaled[entries]] *= 1 / alpha
    full_rhs = np.zeros(keep.size)
    full_rhs[pattern.a_pos] = pattern.mass @ rhs
    try:
        lu = spla.splu(
            block,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise BlockFactorizationError(f"Newton block system: {exc}") from exc
    solution = np.zeros(keep.size)
    solution[keep] = lu.solve(full_rhs[keep])
    b = solution[pattern.b_pos]
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
