"""P1 finite element assembly on Friedrichs-Keller meshes.

Assembles the consistent mass matrix M, the stiffness matrix K and the
H^1 matrix K + M for the full space W_h (all nodes).  Functions on the
Dirichlet subspace V_h are stored on the interior index set and
zero-extended on demand.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import Mesh, signed_areas

SPACE_W = "W_h"
SPACE_V = "V_h"


@dataclass
class NodalFunction:
    """Coefficient vector of a P1 function, tagged with its space."""

    values: np.ndarray
    space: str
    mesh: Mesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        dim = expected_dim(self.mesh, self.space)
        if self.values.shape != (dim,):
            raise ValueError(
                f"{self.space} on n={self.mesh.n} needs {dim} values, "
                f"got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("nodal values must be finite")

    def extended(self) -> np.ndarray:
        """Coefficients on all mesh nodes (zero on the boundary for V_h)."""
        if self.space == SPACE_W:
            return self.values
        full = np.zeros(self.mesh.num_nodes)
        full[self.mesh.interior] = self.values
        return full


def expected_dim(mesh: Mesh, space: str) -> int:
    if space == SPACE_W:
        return mesh.num_nodes
    if space == SPACE_V:
        return mesh.interior.size
    raise ValueError(f"unknown space tag {space!r}")


def _accumulate(mesh: Mesh, element: np.ndarray) -> sp.csr_matrix:
    """Sum per-triangle 3x3 matrices (area-scaled) into a global CSR matrix."""
    tri = mesh.triangles
    areas = signed_areas(mesh)
    nt = tri.shape[0]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    vals = (areas[:, None, None] * element).reshape(nt, 9).ravel()
    a = sp.coo_matrix((vals, (rows, cols)), shape=(mesh.num_nodes,) * 2).tocsr()
    a.sum_duplicates()
    return a


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """K[i, j] = integral of grad(phi_i) . grad(phi_j) over the square."""
    p = mesh.nodes[mesh.triangles]
    areas = signed_areas(mesh)
    # constant P1 gradients: grad(phi_k) = rot(edge opposite k) / (2 area)
    e = np.stack(
        [p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1
    )
    grads = np.stack([-e[:, :, 1], e[:, :, 0]], axis=2) / (2.0 * areas)[:, None, None]
    element = np.einsum("tik,tjk->tij", grads, grads)
    return _accumulate(mesh, element)


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix; exact for products of P1 functions."""
    nt = mesh.num_triangles
    element = np.broadcast_to(_MASS_REF, (nt, 3, 3))
    return _accumulate(mesh, element)


def interpolate(f, mesh: Mesh) -> NodalFunction:
    """Nodal interpolant of a scalar field: values[k] = f(x_k)."""
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vals = np.broadcast_to(np.asarray(f(x1, x2), dtype=float), x1.shape).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("field returned a non-finite value at a mesh node")
    return NodalFunction(vals, SPACE_W, mesh)


@dataclass
class FEMatrices:
    """Assembled operators for one mesh, shared by all solver stages."""

    mesh: Mesh
    K: sp.csr_matrix
    M: sp.csr_matrix
    A: sp.csc_matrix  # K + M
    interior: np.ndarray
    K_int: sp.csc_matrix  # stiffness on V_h (all interior nodes)
    _free_key: np.ndarray | None = field(default=None, repr=False)
    _free_fact: object = field(default=None, repr=False)

    @cached_property
    def a_factorization(self) -> linalg.Factorization:
        """Factorization of K + M (Neumann Helmholtz operator)."""
        return linalg.Factorization(self.A)

    @cached_property
    def kint_factorization(self) -> linalg.Factorization:
        """Factorization of the interior (Dirichlet) stiffness matrix."""
        return linalg.Factorization(self.K_int)

    @cached_property
    def newton_pattern(self) -> linalg.BlockPattern:
        """The Newton block system with every interior node free, in
        node-interleaved Mesh.nested_dissection order; see
        linalg.solve_block_newton."""
        nw = self.mesh.num_nodes
        rank = np.empty(nw, dtype=np.int64)
        rank[self.mesh.nested_dissection] = np.arange(nw)
        keys = np.concatenate([3 * rank, 3 * rank[self.interior] + 1, 3 * rank + 2])
        size = keys.size
        pos = np.empty(size, dtype=np.int32)
        pos[np.argsort(keys)] = np.arange(size, dtype=np.int32)
        a_pos, w_pos, b_pos = pos[:nw], pos[nw:-nw], pos[-nw:]
        w_node = np.full(nw, -1, dtype=np.int32)  # w position by node, -1 on the boundary
        w_node[self.interior] = w_pos
        blocks = [  # row positions, column positions, matrix; M/alpha second
            (a_pos, a_pos, self.A), (a_pos, b_pos, self.M), (w_node, a_pos, -self.M),
            (w_pos, w_pos, self.K_int), (b_pos, w_node, -self.M), (b_pos, b_pos, self.A),
        ]
        row, col, data, scaled = [], [], [], []
        for i, (rows, cols, mat) in enumerate(blocks):
            mat = mat.tocoo()
            r, c = rows[mat.row], cols[mat.col]
            kept = (r >= 0) & (c >= 0)
            row.append(r[kept])
            col.append(c[kept])
            data.append(mat.data[kept])
            scaled.append(np.full(np.count_nonzero(kept), i == 1))
        row, col, data, scaled = map(np.concatenate, (row, col, data, scaled))
        order = np.argsort(col.astype(np.int64) * size + row)  # by column, then row
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(col, minlength=size), out=indptr[1:])
        matrix = sp.csc_matrix((data[order], row[order], indptr), shape=(size, size))
        return linalg.BlockPattern(matrix, scaled[order], self.M, a_pos, w_pos, b_pos)

    def free_factorization(self, free: np.ndarray):
        """Factorization of K_int[free, free] for sorted unique interior
        indices, cut from K_int; the only place a submatrix of K_int is
        factorized.

        Keeps the whole-interior factor and the last other free set, so
        the final PDAS iterate and G_N on the same set share one factor.
        The key compares values, since int32 and int64 arrays can share bytes.
        """
        if free.size == self.interior.size:
            return self.kint_factorization
        if not np.array_equal(self._free_key, free):
            # release the old factor first: holding two at once raises peak memory
            self._free_key = self._free_fact = None
            keep = np.zeros(self.interior.size, dtype=bool)
            keep[free] = True
            sub, _ = linalg.principal_submatrix(self.K_int, keep)
            self._free_fact = linalg.Factorization(sub)
            self._free_key = np.array(free)
        return self._free_fact


def build_matrices(mesh: Mesh) -> FEMatrices:
    K = stiffness_matrix(mesh)
    M = mass_matrix(mesh)
    A = (K + M).tocsc()
    K_int, _ = linalg.principal_submatrix(K.tocsc(), ~mesh.boundary_mask)
    return FEMatrices(mesh=mesh, K=K, M=M, A=A, interior=mesh.interior, K_int=K_int)


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
