"""P1 finite element assembly on Friedrichs-Keller meshes.

Assembles the consistent mass matrix M, the stiffness matrix K and the
H^1 matrix K + M for the full space W_h (all nodes), writing their
arrays straight from the 7-point stencil of the mesh.  Functions on the
Dirichlet subspace V_h are plain arrays on the interior index set;
operators.extend_interior zero-extends them.

Each mesh keeps one factor of K + M and one of K_int[free, free], for
the last free set, the whole interior included; meshes with n up to
BANDED_MAX_N factor them by band Cholesky, cutting the band of each
K_int[free, free] from the upper-triangle entries of K_int, finer ones
by SuperLU.  A
mesh with n up to SCHUR_MAX_N solves its Newton block systems through
their dense Schur complement, a finer one by SuperLU.

The meshes n, n/2, n/4, ... are nested: each coarse triangle is the
union of four fine ones.  FEMatrices.coarse and FEMatrices.prolongation
link a mesh to the next coarser one, down to COARSEST_N, and
FEMatrices.newton_coarse picks the level of the Newton preconditioner.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import Mesh, build_friedrichs_keller

COARSEST_N = 16  # no mesh coarser than this is built as a level of the hierarchy
# A level with n up to this factors K + M and each K_int[free, free] in
# natural node order by band Cholesky (linalg.Factorization without an
# order); a finer level factors them by SuperLU in
# Mesh.nested_dissection order.  A band factor costs about n^4 and
# falls behind between n = 96 and 128 (the README has the kernel
# times).  64 is the largest level the benchmark workloads run, so the
# gain is measured end to end only up to it; n = 96 is left on SuperLU,
# which keeps the iterates of every run finer than 64 as they were.
BANDED_MAX_N = 64
# A level with n up to this solves its Newton block system through the
# dense Schur complement on the free w-unknowns (linalg.SchurBlock), from
# K_int and C = B^T M B built once per level; a finer level factors the
# sparse block system by SuperLU.  Factor / solve with every interior node
# free, one BLAS thread, against SuperLU (the README has the table):
#   n =  8:  0.05 ms / 42 us   against 0.52 ms / 19 us
#   n = 16:  0.77 ms / 96 us   against 2.1 ms / 67 us
#   n = 24:  6.4 ms / 376 us   against 5.5 ms / 177 us
# The dense factor costs |free|^3 ~ n^6 and loses by n = 24.  16 is the
# coarse level of every paper run, and every block system above it keeps
# its iterates bit for bit.
SCHUR_MAX_N = 16
# The smallest alpha of a Newton run (NewtonConfig) and of a Newton block
# system (FEMatrices.newton_block).  Below it the unpivoted SuperLU block
# LU returns wrong steps: the first is at 1e-28 (n = 24, ||y|| / ||rhs||
# = 4.4 where the exact value is at most 1), and cold paper runs at
# n = 17..26 already end by round-off at 5e-23 and below.  At 1e-20 no
# entry M / alpha of the block system overflows when squared.
ALPHA_MIN = 1e-20
# FEMatrices.newton_coarse goes down to a level n_c only while alpha n_c^6
# is at least the first (two-grid PCG then takes 8 or fewer iterations per
# Newton step), and picks no level, so that the fine block LU solves it,
# where alpha n_c^4 is below the second: PCG stalls at up to 3.3e-5 and
# takes up to 27 iterations at 5.2e-5 (the README has both tables).
NEWTON_COARSE_ALPHA_N6 = 100.0
NEWTON_PCG_ALPHA_N4 = 8e-5


@dataclass
class NodalFunction:
    """Coefficient vector of a P1 function on W_h: one finite value per
    mesh node."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.num_nodes,):
            raise ValueError(
                f"W_h on n={self.mesh.n} needs {self.mesh.num_nodes} values, "
                f"got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")


class _Stencil(NamedTuple):
    """K and M in CSR form on their shared 7-point pattern."""

    indptr: np.ndarray
    indices: np.ndarray
    k: np.ndarray
    m: np.ndarray


def _stencil(mesh: Mesh) -> _Stencil:
    """The CSR arrays of K and M, written from the Friedrichs-Keller stencil.

    Node (i, j) couples to itself and to the ends of its edges, at the
    offsets -(n+2), -(n+1), -1, 0, 1, n+1, n+2 (in this column order),
    the ll->ur diagonals at +-(n+2); an offset is dropped where it leaves
    the square.  K = T_N (x) W + W (x) T_N, with T_N = tridiag(-1, 2, -1)
    with 1 in both corners and W = diag(1/2, 1, ..., 1, 1/2), so its
    entries are exact at every n, and the diagonal edges store K's 0.0.
    A triangle, of area h^2/2, adds (h^2/2)(2/12) to the M entry of each
    of its nodes and (h^2/2)(1/12) to that of each of its edges, and each
    entry of M adds these copies one at a time.  So at every power-of-two
    n, where h^2/2 is exact, K and M are bit for bit those of an assembly
    triangle by triangle; at other n, M lies within a few ulps of its
    exact value."""
    n = mesh.n
    side = n + 1
    w = np.ones(side)
    w[[0, -1]] = 0.5
    t = 2.0 * w  # the diagonal of T_N
    lo, hi = np.arange(side) > 0, np.arange(side) < n
    # node (i, j) at [j, i] of the grid: a row vector varies with i, a column with j
    w_i, t_i, lo_i, hi_i = w, t, lo, hi
    w_j, t_j, lo_j, hi_j = w[:, None], t[:, None], lo[:, None], hi[:, None]

    def per_offset(*values):  # one value per offset, each over the grid, node by node
        return np.stack(np.broadcast_arrays(*values), axis=-1).reshape(-1, 7)

    present = per_offset(lo_i & lo_j, lo_j, lo_i, True, hi_i, hi_j, hi_i & hi_j)
    k = per_offset(0.0, -w_i, -w_j, t_i * w_j + w_i * t_j, -w_j, -w_i, 0.0)
    # copies[0, c - 1] adds c shares of an edge, copies[1, c - 1] of a node;
    # a diagonal edge (across) lies in 2 triangles, an axis edge in 2w
    shares = 0.5 / (n * n) * (np.array([[1.0], [2.0]]) / 12.0)
    copies = np.cumsum(np.repeat(shares, 6, axis=1), axis=1)
    across, edge_i = copies[0, 1], copies[0, (2 * w).astype(np.intp) - 1]
    edge_j = edge_i[:, None]
    at_node = 2 * (hi_i & hi_j) + (lo_i & hi_j) + (hi_i & lo_j) + 2 * (lo_i & lo_j)
    m = per_offset(across, edge_i, edge_j, copies[1, at_node - 1], edge_j, edge_i, across)
    offsets = np.array([-side - 1, -side, -1, 0, 1, side, side + 1])
    indptr = np.zeros(side * side + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    indices = (np.arange(side * side)[:, None] + offsets)[present].astype(np.int32)
    return _Stencil(indptr, indices, k[present], m[present])


def _on_pattern(s: _Stencil, data: np.ndarray, kind=sp.csr_matrix):
    """data on the stencil's pattern, as CSR, or as CSC for a symmetric
    matrix, whose CSR arrays are its CSC arrays.  The matrices of one
    stencil share its index arrays, which nothing changes in place."""
    a = kind((data, s.indices, s.indptr), shape=(s.indptr.size - 1,) * 2)
    a.has_canonical_format = True
    return a


def inject(full: np.ndarray, mesh: Mesh, n_c: int) -> np.ndarray:
    """Values at the nodes of the level n_c of the hierarchy below mesh,
    node (i, j) read at (s i, s j) with s = n / n_c."""
    side = mesh.n + 1
    stride = mesh.n // n_c
    return full.reshape(side, side)[::stride, ::stride].ravel()


def interpolate(f, mesh: Mesh) -> NodalFunction:
    """Nodal interpolant of a scalar field: values[k] = f(x_k)."""
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vals = np.broadcast_to(np.asarray(f(x1, x2), dtype=float), x1.shape).copy()
    return NodalFunction(vals, mesh)


class CoarseLink(NamedTuple):
    """A coarse level of the hierarchy and the maps between it and a
    finer mesh, on all nodes."""

    level: "FEMatrices"
    prolongation: sp.csr_matrix  # composite P1 prolongation from level
    restriction: sp.csr_matrix  # its transpose


@dataclass
class FEMatrices:
    """Assembled operators for one mesh, shared by all solver stages."""

    mesh: Mesh
    K: sp.csr_matrix
    M: sp.csr_matrix
    A: sp.csc_matrix  # K + M
    interior: np.ndarray
    K_int: sp.csc_matrix  # stiffness on V_h (all interior nodes)
    _free_key: np.ndarray | None = field(default=None, init=False, repr=False)
    _free_fact: object = field(default=None, init=False, repr=False)
    _block: object = field(default=None, init=False, repr=False)
    _links: dict = field(default_factory=dict, init=False, repr=False)  # n_c -> CoarseLink

    @property
    def banded(self) -> bool:
        """Whether this level factors by band Cholesky (BANDED_MAX_N)."""
        return self.mesh.n <= BANDED_MAX_N

    @cached_property
    def schur_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """K_int and C = B^T M B of linalg.SchurBlock, dense, with
        B = (K+M)^{-1} M E one solve of a_factorization with a column per
        interior node."""
        basis = self.a_factorization.solve(self.M[:, self.interior].toarray())
        return self.K_int.toarray(), basis.T @ (self.M @ basis)

    @cached_property
    def kint_upper(self) -> linalg.UpperEntries:
        """The entries of K_int with i <= j, explicit zeros kept, from
        which a banded level cuts the band of each free-set submatrix."""
        return linalg.upper_entries(self.K_int)

    @cached_property
    def kint_nd(self) -> linalg.OrderedMatrix:
        """K_int with the interior nodes in Mesh.nested_dissection order,
        from which a level that is not banded cuts its free-set submatrices."""
        nd_rank = np.argsort(self.mesh.nested_dissection)  # the ND position of each node
        return linalg.reorder(self.K_int, np.argsort(nd_rank[self.interior]))

    @cached_property
    def a_factorization(self) -> linalg.Factorization:
        """Factorization of K + M (Neumann Helmholtz operator): in natural
        order on a banded level, else in Mesh.nested_dissection order."""
        if self.banded:
            return linalg.Factorization(self.A)
        a = linalg.reorder(self.A, self.mesh.nested_dissection)
        return linalg.Factorization(a.matrix, a.order)

    @cached_property
    def coarse(self) -> "FEMatrices | None":
        """The matrices of the mesh n/2, built on first use, or None when
        n is odd or n/2 is below COARSEST_N.  Each level owns its own
        factorizations."""
        n = self.mesh.n
        if n % 2 or n // 2 < COARSEST_N:
            return None
        return build_matrices(build_friedrichs_keller(n // 2))

    @cached_property
    def prolongation(self) -> sp.csr_matrix:
        """P1 prolongation from the mesh n/2 to this one, n even, on all nodes.

        Fine node (I, J) lies on the coarse edge from (floor(I/2), floor(J/2))
        to (ceil(I/2), ceil(J/2)), the ll->ur diagonal included, and takes
        the mean of its two ends; a node of both meshes takes its own value."""
        n = self.mesh.n
        nc = n // 2
        fine = np.arange(n + 1)
        rows = np.add.outer(fine * (n + 1), fine).ravel()
        ends = [np.add.outer(e * (nc + 1), e).ravel() for e in (fine // 2, (fine + 1) // 2)]
        return sp.coo_matrix(
            (np.full(2 * rows.size, 0.5), (np.tile(rows, 2), np.concatenate(ends))),
            shape=((n + 1) ** 2, (nc + 1) ** 2),
        ).tocsr()

    def newton_coarse(self, alpha: float) -> CoarseLink | None:
        """The coarse level of the Newton preconditioner at alpha, or None
        where the fine block LU solves the Newton step: on a mesh without a
        coarse level, or at alpha n_c^4 < NEWTON_PCG_ALPHA_N4.  From n/2
        it walks down FEMatrices.coarse while the next level n_c still has
        alpha n_c^6 >= NEWTON_COARSE_ALPHA_N6, and keeps n/2 when even
        that fails the bound.  The maps to each level are built once."""
        level = self.coarse
        if level is None:
            return None
        below = level.coarse
        while below is not None and alpha * below.mesh.n**6 >= NEWTON_COARSE_ALPHA_N6:
            level, below = below, below.coarse
        n_c = level.mesh.n
        if alpha * n_c**4 < NEWTON_PCG_ALPHA_N4:
            return None
        if n_c not in self._links:
            pr, finer = self.prolongation, self.coarse
            while finer is not level:
                pr, finer = pr @ finer.prolongation, finer.coarse
            self._links[n_c] = CoarseLink(level, pr, pr.T.tocsr())
        return self._links[n_c]

    def newton_block(self, alpha: float) -> linalg.BlockPattern | linalg.SchurBlock:
        """The Newton block system of linalg.solve_block_newton at alpha,
        in the form the kernel of this level factors, chosen by n alone: up
        to SCHUR_MAX_N the SchurBlock from schur_parts, else the system with
        every interior node free, in node-interleaved
        Mesh.nested_dissection order, which is kept for the last alpha,
        since every step of a Newton run shares it.  An alpha below
        ALPHA_MIN, or NaN, is a ValueError."""
        if not alpha >= ALPHA_MIN:
            raise ValueError(f"alpha must be at least ALPHA_MIN = {ALPHA_MIN:g}, got {alpha!r}")
        if self.mesh.n <= SCHUR_MAX_N:
            return linalg.SchurBlock(
                *self.schur_parts, self.a_factorization, self.M, self.interior, alpha
            )
        if self._block is None or self._block.alpha != alpha:
            self._block = None  # release the old entries first
            m, inner, nw = self.M, self.interior, self.mesh.num_nodes
            system = sp.bmat([[self.A, None, m * (1 / alpha)], [-m[inner], self.K_int, None],
                              [None, -m[:, inner], self.A]], format="coo")
            rank = np.argsort(self.mesh.nested_dissection)  # the ND position of each node
            keys = np.concatenate([3 * rank, 3 * rank[inner] + 1, 3 * rank + 2])
            ordered = linalg.reorder(system, np.argsort(keys))
            pos = ordered.rank  # of the unknowns a, then w, then b
            self._block = linalg.BlockPattern(
                ordered.matrix, m, pos[:nw], pos[nw:-nw], pos[-nw:], alpha
            )
        return self._block

    def free_factorization(self, free: np.ndarray):
        """Factorization of K_int[free, free] for sorted unique interior
        indices; the only place K_int or a submatrix of it is factorized.
        On a banded level its band is cut from kint_upper, so in natural
        order, with no sparse submatrix built, else the submatrix is cut
        from kint_nd, so in Mesh.nested_dissection order.

        Keeps the factor of the last free set only, the whole interior
        included, so the final PDAS iterate and G_N on the same set share
        one factor.  The key compares values, since int32 and int64
        arrays can share bytes.
        """
        try:
            if not np.array_equal(self._free_key, free):
                # release the old factor first: holding two at once raises peak memory
                self._free_key = self._free_fact = None
                keep = np.zeros(self.interior.size, dtype=bool)
                if self.banded:
                    keep[free] = True
                    band = linalg.upper_band(self.kint_upper, keep)
                    self._free_fact = linalg.Factorization(band)
                else:
                    nd = self.kint_nd
                    keep[nd.rank[free]] = True
                    sub = linalg.principal_submatrix(nd.matrix, keep)
                    slot = np.empty(self.interior.size, dtype=np.int64)  # index into free
                    slot[free] = np.arange(free.size)
                    self._free_fact = linalg.Factorization(sub, slot[nd.order[keep]])
                self._free_key = np.array(free)
            return self._free_fact
        except linalg.NotPositiveDefiniteError as exc:
            raise linalg.NotPositiveDefiniteError(
                f"level n={self.mesh.n}, K_int[free, free] with |free| = {free.size}: {exc}"
            ) from exc


def build_matrices(mesh: Mesh) -> FEMatrices:
    """K and M in CSR form, K + M in CSC form and K_int, cut from K read
    as CSC, all on the arrays of one _stencil."""
    s = _stencil(mesh)
    K_int = linalg.principal_submatrix(_on_pattern(s, s.k, sp.csc_matrix), ~mesh.boundary_mask)
    return FEMatrices(
        mesh=mesh,
        K=_on_pattern(s, s.k),
        M=_on_pattern(s, s.m),
        A=_on_pattern(s, s.k + s.m, sp.csc_matrix),
        interior=mesh.interior,
        K_int=K_int,
    )


def vector_norm(full: np.ndarray, kind: str, K: sp.spmatrix, M: sp.spmatrix) -> float:
    """Discrete L2, H1 or H1-seminorm of a full-node coefficient vector.
    Too large a vector gives inf or NaN, without a warning; callers test it."""
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "L2":
            q = full @ (M @ full)
        elif kind == "H1":
            q = full @ (M @ full) + full @ (K @ full)
        elif kind == "H1_semi":
            q = full @ (K @ full)
        else:
            raise ValueError(f"unknown norm kind {kind!r}")
    return float(np.sqrt(max(q, 0.0)))
