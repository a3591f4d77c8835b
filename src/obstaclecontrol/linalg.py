"""Sparse direct solves for the systems of the solver pipeline.

Factorization factors a symmetric positive definite matrix by one of
two kernels, each with one input form and one certificate.  The upper
band of a matrix in natural node order, whose band is narrow on the
small meshes, goes to LAPACK's band Cholesky (dpbtrf, then dpbtrs per
solve), which certifies positive definiteness as it factors; the band
of any principal submatrix is cut straight from the upper-triangle
entries of the matrix (upper_band), with no sparse submatrix built.  A
CSC matrix in a fill-reducing order, such as Mesh.nested_dissection,
goes to SuperLU in symmetric mode with diagonal pivoting disabled,
which makes it behave like a Cholesky factorization, and is certified
positive definite from its entries: its positive diagonal must dominate
every column, as it does in K + M at every mesh size, since K is exact,
and in the red-black reduced system of every K_int[free, free], which
RedBlackFactorization writes straight from the graph of the matrix and
hands to either kernel.  SuperLU factors in the order it is given
(NATURAL): the caller puts the unknowns in that order once per matrix,
so no ordering pass runs on each factorization.  The Newton block
system, which is not symmetric, is factored by SuperLU, or, on the
small levels, reduced to a dense symmetric positive definite Schur
complement on its w-unknowns, which LAPACK's dense Cholesky factors.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack


class SolverError(Exception):
    """A numerical failure of the solver pipeline, as opposed to a usage
    error: the command line reports it as one error line and exit 1."""


class NotPositiveDefiniteError(SolverError):
    """The matrix handed to Factorization is not certified positive
    definite, or the operator handed to cg_self_adjoint has a nonpositive
    curvature."""


class BlockFactorizationError(SolverError):
    """The Newton block system could not be factored: by SuperLU, for
    example because a pivot is exactly zero, or through its Schur
    complement, which is not finite or not positive definite."""


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
    diag = a.diagonal()
    # a positive diagonal leaves no column empty, as reduceat needs
    return bool(
        (diag > 0.0).all()
        and (np.add.reduceat(np.abs(a.data), a.indptr[:-1].astype(np.intp)) <= 2.0 * diag).all()
    )


class UpperEntries(NamedTuple):
    """The entries (i, j, value) with i <= j of a square sparse matrix,
    explicit zeros kept, from which upper_band cuts the band of any
    principal submatrix."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray


def upper_entries(a: sp.csc_matrix) -> UpperEntries:
    """The upper-triangle entries of a square CSC matrix without duplicate
    entries."""
    col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    upper = a.indices <= col
    return UpperEntries(a.indices[upper].astype(np.intp), col[upper], a.data[upper])


def upper_band(entries: UpperEntries, keep: np.ndarray) -> np.ndarray:
    """The upper triangle of the principal submatrix on the unknowns where
    keep is True, in LAPACK's band storage: entry (i, j), i <= j, of the
    submatrix at row b + i - j of column j, with b the largest j - i of
    a kept entry, explicit zeros included.  Dropping unknowns keeps the
    order of the others."""
    kept = keep[entries.row] & keep[entries.col]
    index = np.cumsum(keep) - 1
    row, col = index[entries.row[kept]], index[entries.col[kept]]
    b = int((col - row).max(initial=0))
    size = int(np.count_nonzero(keep))
    band = np.zeros((b + 1) * size)
    band[(col + 1) * b + row] = entries.data[kept]  # row b + i - j of column j, in Fortran order
    return band.reshape((b + 1, size), order="F")


class Factorization:
    """Reusable direct factorization of a sparse SPD matrix.

    With no order, a is the upper band of a matrix in natural order, in
    which its band is narrow (upper_band), and LAPACK's band Cholesky
    factors it in place: a leading minor that is not positive, or a
    factor that is not finite, is an error.

    With an order, a is a CSC matrix in that order, and SuperLU factors
    it: order[k] is the unknown at position k of a, through which solve
    maps right-hand sides and solutions.  A zero pivot is an error
    (SuperLU reports it, or exchanges rows at it), and so is a matrix
    that is not diagonally dominant, since its pivots are not certified
    positive."""

    def __init__(self, a: np.ndarray | sp.csc_matrix, order: np.ndarray | None = None):
        if not (isinstance(a, np.ndarray) if order is None else sp.issparse(a) and a.format == "csc"):
            raise TypeError("Factorization takes an upper band without an order, "
                            "or a CSC matrix with its order")
        size = a.shape[1]  # SuperLU refuses a matrix that is not square
        self.shape = (size, size)
        self._order = order
        self._lu = self._band = None
        if size == 0:
            return
        if order is None:
            self._band, info = lapack.dpbtrf(a, overwrite_ab=True)
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
            raise NotPositiveDefiniteError(
                f"{size} x {size} matrix: not diagonally dominant, so not certified "
                "positive definite"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution for a right-hand side of shape (N,), or for each
        column of one of shape (N, k)."""
        b = _rhs(b, self.shape[0])
        if self._band is not None:
            return lapack.dpbtrs(self._band, b)[0]
        if self._lu is None:
            return b.copy()
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


def _rhs(b: np.ndarray, size: int) -> np.ndarray:
    """b as a float right-hand side of shape (size,) or (size, k)."""
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != size:
        raise ValueError(f"rhs has shape {b.shape}, expected ({size},) or ({size}, k)")
    return b


# the 6 pairs of the 4 neighbour slots of an unknown
_PAIRS = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])


class RedBlackFactorization:
    """Factorization of a matrix 4I - A, with A the 0/1 adjacency of a
    graph whose every edge joins a red and a black unknown, through one
    step of cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970).  K_int[free, free] of a Friedrichs-Keller mesh is
    such a matrix, coloured by the parity of i + j, since K_int is 4 at a
    node, -1 on its axis edges and 0.0 on its diagonal ones, which join
    nodes of one colour.

    In red-black order the matrix is [[4I, -E], [-E^T, 4I]], so the
    red unknowns are eliminated and the reduced matrix on the black ones,
    S = 4I - E^T E / 4, is factored: its entries are multiples of 1/4, so
    exact, and S is positive definite exactly when the matrix is.  Two
    black unknowns couple in S when they share a red neighbour.

    black marks the black unknowns; neighbours holds the (up to 4)
    neighbours of each unknown, one row each, and the number of unknowns
    in the slots of a row that have none.  reduced is Factorization(band)
    of S in the order of the black unknowns, or, given order (the black
    unknown at each position), Factorization(csc, order): an unknown with
    d <= 4 red neighbours has 4 - d/4 on the diagonal of S, 3d/4 at most
    off it."""

    def __init__(self, black: np.ndarray, neighbours: np.ndarray, order: np.ndarray | None = None):
        size = black.size
        self.shape = (size, size)
        self._black, self._red = np.flatnonzero(black), np.flatnonzero(~black)
        nb = self._black.size
        # one contiguous row per slot, so that summing over the slots adds
        # whole rows: 2 to 4 times faster than summing each row of neighbours
        self._black_neighbours = np.ascontiguousarray(neighbours[self._black].T)
        self._red_neighbours = np.ascontiguousarray(neighbours[self._red].T)
        rank = np.full(size + 1, nb)  # the position in S of each black unknown, nb for none
        rank[self._black] = np.arange(nb)
        around = rank[self._red_neighbours]  # the black neighbours of each red unknown, in S
        # 4 on the diagonal of S, and each red unknown adds -1/4 at each of its
        # black neighbours and at each pair of them
        one, other = around[_PAIRS[0]], around[_PAIRS[1]]
        low, high = np.minimum(one, other), np.maximum(one, other)
        paired = high < nb  # and so low < nb
        diagonal = np.concatenate([np.arange(nb), around[around < nb]])
        rows = np.concatenate([diagonal, low[paired]])
        cols = np.concatenate([diagonal, high[paired]])
        weights = np.full(rows.size, -0.25)
        weights[:nb] = 4.0
        if order is not None:  # both triangles in the order; COO -> CSC sums duplicates
            rank, off = np.argsort(order), slice(diagonal.size, None)
            ij = rank[np.concatenate([rows, cols[off]])], rank[np.concatenate([cols, rows[off]])]
            s = sp.csc_matrix((np.concatenate([weights, weights[off]]), ij), shape=(nb, nb))
            self.reduced = Factorization(s, order)
            return
        b = int((cols - rows).max(initial=0))
        # entry (i, j), i <= j, at row b + i - j of column j, in Fortran order
        band = np.bincount((cols + 1) * b + rows, weights=weights, minlength=(b + 1) * nb)
        self.reduced = Factorization(band.reshape((b + 1, nb), order="F"))

    def solve(self, g: np.ndarray) -> np.ndarray:
        """The solution for a right-hand side of shape (N,), or for each
        column of one of shape (N, k): x_B = S^{-1} (g_B + E^T g_R / 4),
        then x_R = (g_R + E x_B) / 4."""
        g = _rhs(g, self.shape[0])
        size = g.shape[0]
        x = np.zeros((size + 1, *g.shape[1:]))  # a missing neighbour reads the 0 of row size
        x[:size] = g
        black_sum = x[self._black_neighbours].sum(axis=0)  # E^T g_R
        x[self._black] = self.reduced.solve(g[self._black] + 0.25 * black_sum)
        x[self._red] = 0.25 * (g[self._red] + x[self._red_neighbours].sum(axis=0))
        return x[:size]


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


class SchurBlock(NamedTuple):
    """The Newton block system of solve_block_newton at alpha, with its
    a- and b-unknowns eliminated, in dense form.

    With B = (K+M)^{-1} M E (all nodes x interior nodes, E the zero
    extension of the interior) and C = B^T M B, the system for the free
    set f reduces to the symmetric positive definite Schur complement

        S w = B_f^T g,   S = K_int[f, f] + C[f, f] / alpha,   b = B_f w,

    with B_f the columns of B at f (Benzi, Golub & Liesen, Acta Numer.
    14, 2005, section 5).  Every field but alpha is shared by every
    alpha and free set."""

    kint: np.ndarray  # K_int, dense
    coupling: np.ndarray  # C
    helmholtz: Factorization  # of K + M, which applies B and B^T
    mass: sp.csr_matrix  # M, which maps the right-hand side
    interior: np.ndarray  # the node of each interior index
    alpha: float


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


def _schur_solver(block: SchurBlock, free: np.ndarray):
    """Factor the Schur complement of block on the free set (SchurBlock)
    by dense Cholesky and return the solve g -> b, which applies the
    factor once, B_f and B_f^T by solves of K + M: enough for a
    preconditioner, which need not be accurate to round-off.

    C is a Gram matrix, so at small alpha S is far worse conditioned
    than the block system, and a plain solve of S loses up to 4e-11 of
    relative accuracy in y at alpha = 1e-10.  So solve.refined, the solve
    of a fine step, takes one step of refinement against the w-rows,
    K_ff w - (M a)_f (Björck, BIT 7, 1967, for the augmented system of
    least squares)."""
    cut = np.ix_(free, free)
    k_ff = block.kint[cut]
    with np.errstate(over="ignore", invalid="ignore"):
        schur = k_ff + block.coupling[cut] / block.alpha
    failure = f"Newton block system with |free| = {free.size}: Schur complement"
    if not np.isfinite(schur).all():
        raise BlockFactorizationError(f"{failure} is not finite")
    factor, info = lapack.dpotrf(schur, overwrite_a=True)
    if info > 0:
        raise BlockFactorizationError(
            f"{failure} is not positive definite: leading minor of order {info}"
        )
    helmholtz, mass, nodes, alpha = block.helmholtz, block.mass, block.interior[free], block.alpha

    def apply_b(w: np.ndarray) -> np.ndarray:  # B_f w
        extended = np.zeros(mass.shape[0])
        extended[nodes] = w
        return helmholtz.solve(mass @ extended)

    def apply_s_inverse(r: np.ndarray) -> np.ndarray:
        # two dtrsv calls: dpotrs takes about twice as long for one right-hand side
        return blas.dtrsv(factor, blas.dtrsv(factor, r, trans=1))

    def solve(g: np.ndarray) -> np.ndarray:
        return apply_b(apply_s_inverse((mass @ helmholtz.solve(g))[nodes]))

    def refined(g: np.ndarray) -> np.ndarray:
        w = apply_s_inverse((mass @ helmholtz.solve(g))[nodes])
        a = helmholtz.solve(g - mass @ apply_b(w) / alpha)
        w += apply_s_inverse((mass @ a)[nodes] - k_ff @ w)
        return apply_b(w)

    solve.refined = refined
    return solve


def block_solver(block: BlockPattern | SchurBlock, free: np.ndarray):
    """Factor the Newton block system of block (see solve_block_newton)
    for the free interior nodes.  Returns the solve g -> b of the system
    with right-hand side g in the a-rows and 0 elsewhere; the one place a
    Newton block system is factored.  With no free node there is no
    w-unknown, so b = 0.

    A SchurBlock is factored through its dense Schur complement, and its
    solve applies the factor once.  A BlockPattern is cut for the free
    set and factored by SuperLU: the system keeps the block's node
    order, every 3x3 node block is nonsingular, and the system is
    factored without pivoting in that order, so the factors keep the
    sparsity of the ordering.
    """
    if free.size == 0:
        return lambda g: np.zeros(block.mass.shape[0])
    if isinstance(block, SchurBlock):
        return _schur_solver(block, free)
    keep = np.ones(block.matrix.shape[0], dtype=bool)
    keep[block.w_pos] = False
    keep[block.w_pos[free]] = True
    try:
        lu = _splu(principal_submatrix(block.matrix, keep))
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


def solve_block_newton(
    block: BlockPattern | SchurBlock, free: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve (Id + P E G R P) y = rhs for y via the block system at
    block.alpha (FEMatrices.newton_block), factored by block_solver.

    The composition of the Helmholtz solves P = (K+M)^{-1} M (scaled by
    1/alpha) and the constrained Dirichlet solve G on the free interior
    nodes (local interior indices) is decomposed with auxiliary
    variables a = P y, w = G a, b = P (extension of w):

        (K+M) a + (1/alpha) M b = M rhs
        K_ff w  - (M a)|_free   = 0
        (K+M) b - M E w         = 0

    after eliminating y = rhs - b/alpha.  Returns y.  A Schur solve takes
    its refinement step here.
    """
    solve = block_solver(block, free)
    b = getattr(solve, "refined", solve)(block.mass @ rhs)
    return rhs - b / block.alpha


def cg_self_adjoint(apply_op, rhs: np.ndarray, mass: sp.spmatrix, tol: float, max_iter: int,
                    precondition) -> tuple[np.ndarray, int]:
    """Conjugate gradients for an operator self-adjoint and positive
    definite in the inner product (x, z)_M = x^T mass z, preconditioned
    by precondition ((r, mass r) -> an approximate inverse applied to r,
    self-adjoint and positive definite in that inner product), from
    x = 0.  Each iteration forms mass r once.

    Stops when the residual norm is at most tol times that of rhs, and
    returns x and the iterations taken.  Raises CgNoConvergenceError
    after max_iter iterations without that, and NotPositiveDefiniteError
    on a direction of nonpositive curvature."""
    x = np.zeros_like(rhs)
    r = rhs.copy()  # the residual of x = 0, without applying the operator
    mr = mass @ r
    z = precondition(r, mr)
    p = z.copy()
    rr = float(r @ mr)
    rz = float(z @ mr)
    stop = tol * tol * max(rr, 1e-300)  # (rhs, rhs)_M
    it = 0
    while not rr <= stop:  # a NaN residual goes on to fail below
        if it == max_iter:
            raise CgNoConvergenceError(
                f"residual {np.sqrt(rr):.3e} above {np.sqrt(stop):.3e} "
                f"after {max_iter} iterations"
            )
        ap = apply_op(p)
        curvature = float(p @ (mass @ ap))
        if not curvature > 0.0:  # also NaN
            raise NotPositiveDefiniteError(
                f"CG iteration {it}: nonpositive curvature {curvature:.3e}"
            )
        a_step = rz / curvature
        x += a_step * p
        r -= a_step * ap
        mr = mass @ r
        z = precondition(r, mr)
        rr = float(r @ mr)
        rz_new = float(z @ mr)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return x, it
