"""Sparse direct solves for the SPD systems of the solver pipeline.

A thin wrapper around SuperLU.  For symmetric positive definite input we
run the factorization in symmetric mode with diagonal pivoting disabled,
which makes it behave like a Cholesky factorization.  A symmetric matrix
with a positive diagonal that dominates every column (K + M and every
K_int[free, free] at the paper's mesh sizes) is certified positive
definite from its entries; any other matrix is checked through the
pivots of its factor.  SuperLU factors in the order it is given
(NATURAL): the caller puts the unknowns in a fill-reducing order, such
as Mesh.nested_dissection, once per matrix, so no ordering pass runs on
each factorization.
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


def _splu(a: sp.csc_matrix):
    """SuperLU factors of a in the given order, without pivoting."""
    return spla.splu(
        a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def diagonally_dominant(a: sp.csc_matrix) -> bool:
    """Whether every column of a canonical CSC matrix has a positive
    diagonal entry at least the sum of the magnitudes of its others.

    Gaussian elimination without pivoting keeps such a matrix so, hence
    none of its pivots is negative."""
    starts = a.indptr[:-1]
    if a.nnz == 0 or (a.indptr[1:] == starts).any():  # reduceat needs every column
        return False
    diag = a.diagonal()
    total = np.add.reduceat(np.abs(a.data), starts.astype(np.intp))
    return bool((diag > 0.0).all() and (total <= 2.0 * diag).all())


class Factorization:
    """Reusable direct factorization of a sparse SPD matrix.

    a is factored in the order in which it is given.  order[k] is the
    unknown at position k of a, through which solve maps right-hand
    sides and solutions; None keeps them in the order of a.

    A zero pivot is an error (SuperLU reports it, or exchanges rows at
    it).  Every other pivot is positive if a is diagonally dominant;
    otherwise the pivots are read from U, which makes SuperLU keep a
    copy of both factors."""

    def __init__(self, a: sp.spmatrix, order: np.ndarray | None = None):
        a = a.tocsc()
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.shape = a.shape
        self._order = order
        size = a.shape[0]
        if size == 0:
            self._lu = None
            return
        try:
            self._lu = _splu(a)  # sums duplicates of a in place
        except RuntimeError as exc:
            raise NotPositiveDefiniteError(f"{size} x {size} matrix: {exc}") from exc
        # SuperLU exchanges rows only at an exactly zero pivot
        if (self._lu.perm_r != np.arange(size)).any():
            raise NotPositiveDefiniteError(
                f"{size} x {size} matrix: row exchange at an exactly zero pivot"
            )
        if not diagonally_dominant(a):
            pivots = self._lu.U.diagonal()
            bad = np.count_nonzero(~(pivots > 0.0))
            if bad:
                raise NotPositiveDefiniteError(
                    f"{size} x {size} matrix: {bad} nonpositive pivot(s), "
                    f"smallest {pivots.min():.3e}"
                )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.shape[0],):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.shape[0]},)")
        if self._lu is None:
            return b.copy()
        if self._order is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


def entry_columns(a: sp.csc_matrix) -> np.ndarray:
    """Column of each stored entry of a CSC matrix, as intp, the index
    type numpy gathers with fastest."""
    return np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))


class OrderedMatrix(NamedTuple):
    """A sparse matrix with its unknowns renumbered, as Factorization and
    principal_submatrix take it."""

    matrix: sp.csc_matrix  # canonical CSC, explicit zeros kept
    col: np.ndarray  # column of each entry of matrix
    order: np.ndarray  # the unknown of the original matrix at each position
    rank: np.ndarray  # the position of each unknown of the original matrix


def reorder(a: sp.csc_matrix, order: np.ndarray) -> OrderedMatrix:
    """a[order][:, order] of a square CSC matrix, by renumbering the row
    and column of each entry and sorting the entries by column, then row."""
    size = order.size
    rank = np.empty(size, dtype=np.intp)
    rank[order] = np.arange(size)
    row, col = rank[a.indices], rank[entry_columns(a)]
    perm = np.argsort(col * size + row)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=size), out=indptr[1:])
    matrix = sp.csc_matrix(
        (a.data[perm], row[perm].astype(np.int32), indptr), shape=a.shape
    )
    return OrderedMatrix(matrix, col[perm], order, rank)


class BlockPattern(NamedTuple):
    """The Newton block system of solve_block_newton at alpha with every
    interior node free, in the order in which it is factored.

    The unknowns (a, w, b) of each node are numbered next to each other,
    a < w < b, node by node in a fill-reducing order of the mesh nodes
    (such as Mesh.nested_dissection); boundary nodes have no w.  matrix
    is the system in canonical CSC form, explicit zeros kept.  The solve
    drops the w-unknowns of the constrained nodes.
    """

    matrix: sp.csc_matrix
    col: np.ndarray  # column of each entry of matrix
    mass: sp.csr_matrix  # M, which maps the right-hand side
    a_pos: np.ndarray  # position of the a-unknown of each node
    w_pos: np.ndarray  # position of the w-unknown of each interior node
    b_pos: np.ndarray  # position of the b-unknown of each node
    alpha: float  # the alpha of matrix


def principal_submatrix(a: sp.csc_matrix, col: np.ndarray, keep: np.ndarray):
    """Principal submatrix of a canonical CSC matrix on the unknowns
    where keep is True; col is the column of each entry of a
    (entry_columns).

    Dropping unknowns keeps the order of the others, so the submatrix is
    canonical as well, and marked so.  Explicit zeros are kept."""
    kept = keep[col] & keep[a.indices]
    entries = np.flatnonzero(kept)
    index = np.cumsum(keep, dtype=np.int32) - 1
    size = int(np.count_nonzero(keep))
    # a kept column starts after the kept entries of the columns before it
    before = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(kept, out=before[1:])
    indptr = np.append(before[a.indptr[:-1][keep]], before[-1])
    sub = sp.csc_matrix(
        (a.data[entries], index[a.indices[entries]], indptr), shape=(size, size)
    )
    sub.has_canonical_format = True
    return sub


def solve_block_newton(block: BlockPattern, free: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (Id + P E G R P) y = rhs for y via the sparse block system
    at block.alpha (FEMatrices.newton_block).

    The composition of the Helmholtz solves P = (K+M)^{-1} M (scaled by
    1/alpha) and the constrained Dirichlet solve G on the free interior
    nodes (local interior indices) is decomposed with auxiliary
    variables a = P y, w = G a, b = P (extension of w):

        (K+M) a + (1/alpha) M b = M rhs
        K_ff w  - (M a)|_free   = 0
        (K+M) b - M E w         = 0

    after eliminating y = rhs - b/alpha.  Returns y.

    The system is cut out of block, so it keeps the block's node order.
    Every 3x3 node block is nonsingular and the system is factored
    without pivoting in that order, so the factors keep the sparsity of
    the ordering.
    """
    if free.size == 0:
        # G vanishes, the operator is the identity
        return np.asarray(rhs, dtype=float).copy()

    keep = np.ones(block.matrix.shape[0], dtype=bool)
    keep[block.w_pos] = False
    keep[block.w_pos[free]] = True
    system = principal_submatrix(block.matrix, block.col, keep)
    full_rhs = np.zeros(keep.size)
    full_rhs[block.a_pos] = block.mass @ rhs
    try:
        lu = _splu(system)
    except RuntimeError as exc:
        raise BlockFactorizationError(
            f"Newton block system with |free| = {free.size}: {exc}"
        ) from exc
    solution = np.zeros(keep.size)
    solution[keep] = lu.solve(full_rhs[keep])
    b = solution[block.b_pos]
    return rhs - b / block.alpha


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
