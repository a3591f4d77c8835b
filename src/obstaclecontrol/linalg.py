"""Sparse direct solves for the systems of the solver pipeline.

Factorization factors a symmetric positive definite matrix by one of
two kernels.  A matrix in natural node order, whose band is narrow on
the small meshes, goes to LAPACK's band Cholesky (dpbtrf, then dpbtrs
per solve), which certifies positive definiteness as it factors.  A
matrix in a fill-reducing order, such as Mesh.nested_dissection, goes
to SuperLU in symmetric mode with diagonal pivoting disabled, which
makes it behave like a Cholesky factorization: a symmetric matrix with
a positive diagonal that dominates every column (K + M, K_int and every
K_int[free, free], at every mesh size, since K is exact) is certified
positive definite from its entries; any other matrix is checked through
the pivots of its factor.  SuperLU factors in the order it is given
(NATURAL): the caller puts the unknowns in that order once per matrix,
so no ordering pass runs on each factorization.  The Newton block
system, which is not symmetric, is always factored by SuperLU.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack


class SolverError(Exception):
    """A numerical failure of the solver pipeline, as opposed to a usage
    error: the command line reports it as one error line and exit 1."""


class NotPositiveDefiniteError(SolverError):
    """The matrix handed to Factorization produced a nonpositive pivot, or
    the operator handed to cg_self_adjoint a nonpositive curvature."""


class BlockFactorizationError(SolverError):
    """SuperLU could not factor the Newton block system, for example
    because a pivot is exactly zero."""


class CgNoConvergenceError(SolverError):
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


def _upper_band(a: sp.csc_matrix) -> np.ndarray:
    """The upper triangle of a square canonical CSC matrix in LAPACK's
    band storage: entry (i, j), i <= j, at row b + i - j of column j,
    with b the largest j - i of an entry."""
    col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    upper = a.indices <= col
    col = col[upper]
    offset = col - a.indices[upper]
    b = int(offset.max(initial=0))
    band = np.zeros((b + 1, a.shape[1]), order="F")
    band[b - offset, col] = a.data[upper]
    return band


class Factorization:
    """Reusable direct factorization of a sparse SPD matrix.

    With no order, a is in its natural order, in which its band is
    narrow, and LAPACK's band Cholesky factors its upper triangle: a
    leading minor that is not positive, or a factor that is not finite,
    is an error.

    With an order, a is given in that order and SuperLU factors it:
    order[k] is the unknown at position k of a, through which solve
    maps right-hand sides and solutions.  A zero pivot is an error
    (SuperLU reports it, or exchanges rows at it).  Every other pivot is
    positive if a is diagonally dominant, as every solver matrix is;
    other input, such as M, has its pivots read from U, which makes
    SuperLU keep a copy of both factors."""

    def __init__(self, a: sp.spmatrix, order: np.ndarray | None = None):
        a = a.tocsc()
        if a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.shape = a.shape
        self._order = order
        self._lu = self._band = None
        size = a.shape[0]
        if size == 0:
            return
        if order is None:
            a.sum_duplicates()
            self._band, info = lapack.dpbtrf(_upper_band(a), overwrite_ab=True)
            if info > 0:
                raise NotPositiveDefiniteError(
                    f"{size} x {size} matrix: leading minor of order {info} is not positive"
                )
            if not np.isfinite(self._band[-1]).all():  # a NaN entry passes dpbtrf
                raise NotPositiveDefiniteError(f"{size} x {size} matrix: factor is not finite")
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
        if self._band is not None:
            return lapack.dpbtrs(self._band, b)[0]
        if self._lu is None:
            return b.copy()
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


class OrderedMatrix(NamedTuple):
    """A sparse matrix with its unknowns renumbered, as Factorization and
    principal_submatrix take it."""

    matrix: sp.csc_matrix  # canonical CSC, explicit zeros kept
    order: np.ndarray  # the unknown of the original matrix at each position
    rank: np.ndarray  # the position of each unknown of the original matrix


def reorder(a: sp.spmatrix, order: np.ndarray) -> OrderedMatrix:
    """a[order][:, order] of a square sparse matrix without duplicate
    entries, in canonical CSC form: scipy's COO -> CSC conversion sorts
    the renumbered entries and keeps explicit zeros."""
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    coo = a.tocoo()
    matrix = sp.csc_matrix((coo.data, (rank[coo.row], rank[coo.col])), shape=a.shape)
    return OrderedMatrix(matrix, order, rank)


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
    mass: sp.csr_matrix  # M, which maps the right-hand side
    a_pos: np.ndarray  # position of the a-unknown of each node
    w_pos: np.ndarray  # position of the w-unknown of each interior node
    b_pos: np.ndarray  # position of the b-unknown of each node
    alpha: float  # the alpha of matrix


def principal_submatrix(a: sp.csc_matrix, keep: np.ndarray):
    """Principal submatrix of a canonical CSC matrix on the unknowns
    where keep is True: an entry is kept when its column and its row are.

    Dropping unknowns keeps the order of the others, so the submatrix is
    canonical as well, and marked so.  Explicit zeros are kept."""
    kept = np.repeat(keep, np.diff(a.indptr)) & keep[a.indices]
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


def block_solver(block: BlockPattern, free: np.ndarray):
    """Cut the Newton block system of block (see solve_block_newton) for
    the free interior nodes and factor it.  Returns the solve g -> b of
    the system with right-hand side g in the a-rows and 0 elsewhere; the
    one place a Newton block system is factored.

    The system is cut out of block, so it keeps the block's node order.
    Every 3x3 node block is nonsingular and the system is factored
    without pivoting in that order, so the factors keep the sparsity of
    the ordering.  With no free node there is no w-unknown, so b = 0.
    """
    if free.size == 0:
        return lambda g: np.zeros(block.b_pos.size)
    keep = np.ones(block.matrix.shape[0], dtype=bool)
    keep[block.w_pos] = False
    keep[block.w_pos[free]] = True
    system = principal_submatrix(block.matrix, keep)
    largest = np.abs(system.data).max()
    try:
        # such entries overflow to inf - inf pivots, past which SuperLU can crash
        if largest > np.sqrt(np.finfo(float).max):
            raise RuntimeError(f"entry {largest:.3e} overflows when squared")
        lu = _splu(system)
    except RuntimeError as exc:
        raise BlockFactorizationError(
            f"Newton block system with |free| = {free.size}: {exc}"
        ) from exc

    def solve(g: np.ndarray) -> np.ndarray:
        full_rhs = np.zeros(keep.size)
        full_rhs[block.a_pos] = g
        solution = np.zeros(keep.size)
        solution[keep] = lu.solve(full_rhs[keep])
        return solution[block.b_pos]

    return solve


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
    """
    b = block_solver(block, free)(block.mass @ rhs)
    return rhs - b / block.alpha


def cg_self_adjoint(apply_op, rhs: np.ndarray, inner, tol: float, max_iter: int,
                    precondition) -> tuple[np.ndarray, int]:
    """Conjugate gradients for an operator self-adjoint and positive
    definite in the given inner product, preconditioned by precondition
    (r -> an approximate inverse applied to r, self-adjoint and positive
    definite in that inner product), from x = 0.

    Stops when the residual norm is at most tol times that of rhs, and
    returns x and the iterations taken.  Raises CgNoConvergenceError
    after max_iter iterations without that, and NotPositiveDefiniteError
    on a direction of nonpositive curvature."""
    x = np.zeros_like(rhs)
    r = rhs.copy()  # the residual of x = 0, without applying the operator
    z = precondition(r)
    p = z.copy()
    rr = inner(r, r)
    rz = inner(r, z)
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
        a_step = rz / curvature
        x += a_step * p
        r -= a_step * ap
        z = precondition(r)
        rr = inner(r, r)
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it
