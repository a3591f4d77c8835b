import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obstaclecontrol.assembly import (
    FEMatrices,
    NodalFunction,
    build_matrices,
    vector_norm,
)
from obstaclecontrol.linalg import Factorization, principal_submatrix
from obstaclecontrol.mesh import Mesh, build_friedrichs_keller
from obstaclecontrol.obstacle import (
    InfeasibleConstraintsError,
    ObstacleSolution,
    classify_nodes,
)

_CACHE = {}


def singular_splu(*args, **kwargs):
    """A stand-in for linalg._splu that fails as SuperLU does at an exactly
    zero pivot."""
    raise RuntimeError("Factor is exactly singular")


def mesh_and_mats(n):
    if n not in _CACHE:
        mesh = build_friedrichs_keller(n)
        _CACHE[n] = (mesh, build_matrices(mesh))
    return _CACHE[n]


def signed_areas(mesh: Mesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def sum_over_triangles(mesh: Mesh, element: np.ndarray) -> sp.csr_matrix:
    """Sum the 3x3 matrices of the triangles, element[t] on the nodes
    mesh.triangles[t], into a global CSR matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((element.ravel(), (rows, cols)), shape=(mesh.num_nodes,) * 2).tocsr()


def reference_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """K assembled triangle by triangle on the integer grid, where every
    triangle has area 1/2 and its element matrix is e_i . e_j / 2, with
    e_k the edge opposite node k (K does not change when a 2D mesh is
    scaled)."""
    p = np.rint(mesh.nodes * mesh.n)[mesh.triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    return sum_over_triangles(mesh, np.einsum("tik,tjk->tij", e, e) / 2.0)


_MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def reference_mass(mesh: Mesh) -> sp.csr_matrix:
    """The consistent P1 mass matrix assembled triangle by triangle from
    the signed area of each."""
    return sum_over_triangles(mesh, signed_areas(mesh)[:, None, None] * _MASS_REF)


def reference_matrices(mesh: Mesh) -> FEMatrices:
    """build_matrices on reference_stiffness and reference_mass, with
    K + M and K_int by scipy's sparse sum and format conversions."""
    K, M = reference_stiffness(mesh), reference_mass(mesh)
    K_int = principal_submatrix(K.tocsc(), ~mesh.boundary_mask)
    return FEMatrices(mesh=mesh, K=K, M=M, A=(K + M).tocsc(), interior=mesh.interior, K_int=K_int)


def recursive_nested_dissection(n: int) -> np.ndarray:
    """Mesh.nested_dissection written as the plain recursion: split each
    block of nodes across its longer side (its columns on a tie), order
    the two halves, then the separator; blocks of at most 2 x 2 nodes
    are listed row by row."""
    side = n + 1
    parts = []

    def visit(i0, i1, j0, j1):  # node columns [i0, i1), rows [j0, j1)
        if i1 - i0 <= 2 and j1 - j0 <= 2:
            parts.append((np.arange(j0, j1)[:, None] * side + np.arange(i0, i1)).ravel())
        elif i1 - i0 >= j1 - j0:
            mid = (i0 + i1) // 2
            visit(i0, mid, j0, j1)
            visit(mid + 1, i1, j0, j1)
            parts.append(np.arange(j0, j1) * side + mid)
        else:
            mid = (j0 + j1) // 2
            visit(i0, i1, j0, mid)
            visit(i0, i1, mid + 1, j1)
            parts.append(mid * side + np.arange(i0, i1))

    visit(0, side, 0, side)
    return np.concatenate(parts)


def solve(f: Factorization, b: np.ndarray) -> np.ndarray:
    return f.solve(b)


def reference_block_matrix(mats: FEMatrices, free: np.ndarray, alpha: float):
    """The Newton block system of linalg.solve_block_newton at alpha for
    the free interior nodes (local indices): FEMatrices.newton_block when
    every interior node is free, else the system solve_block_newton cuts
    out of it.  Assembled apart from both, with K cut by fancy indexing
    and scipy.sparse.bmat, and permuted into node-interleaved
    Mesh.nested_dissection order by a COO -> CSC conversion, not by
    linalg.reorder.  Returns the matrix and perm, the unknown (a, then w,
    then b) placed at each position."""
    free_nodes = mats.interior[free]
    nw = mats.mesh.num_nodes
    nf = free.size
    m_csr = mats.M.tocsr()
    ext = sp.csr_matrix(
        (np.ones(nf), (free_nodes, np.arange(nf))), shape=(nw, nf)
    )  # zero-extension of the free unknowns
    block = sp.bmat(
        [
            [mats.A, None, m_csr / alpha],
            [-m_csr[free_nodes, :], mats.K[np.ix_(free_nodes, free_nodes)].tocsr(), None],
            [None, -(m_csr @ ext), mats.A],
        ],
        format="coo",
    )
    rank = np.empty(nw, dtype=int)
    rank[mats.mesh.nested_dissection] = np.arange(nw)
    perm = np.argsort(np.concatenate([3 * rank, 3 * rank[free_nodes] + 1, 3 * rank + 2]))
    pos = np.argsort(perm)
    block = sp.csc_matrix((block.data, (pos[block.row], pos[block.col])), shape=block.shape)
    return block, perm


def reference_block_newton(mats: FEMatrices, free: np.ndarray, alpha: float, rhs):
    """Solve the Newton update equation with reference_block_matrix."""
    if free.size == 0:
        return np.asarray(rhs, dtype=float).copy()
    block, perm = reference_block_matrix(mats, free, alpha)
    nw = mats.mesh.num_nodes
    full_rhs = np.concatenate([mats.M @ rhs, np.zeros(free.size), np.zeros(nw)])
    lu = spla.splu(
        block, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    b = lu.solve(full_rhs[perm])[np.argsort(perm)[nw + free.size :]]
    return rhs - b / alpha


def assert_same_csc(got, expected):
    """The two CSC matrices store the same entries in the same order,
    explicit zeros included."""
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


def reference_upper_band(a: sp.spmatrix) -> np.ndarray:
    """The upper triangle of a square sparse matrix in LAPACK's band
    storage, read off the diagonals of scipy's DIA form of sp.triu(a):
    the diagonal at offset d fills row b - d, with b the largest offset
    of a stored entry, explicit zeros included."""
    upper = sp.triu(a, format="dia")
    b = int(upper.offsets.max(initial=0))
    band = np.zeros((b + 1, a.shape[0]), order="F")
    for d, diagonal in zip(upper.offsets, upper.data):
        band[b - d, : diagonal.size] = diagonal
    return band


def reference_red_black_band(mats: FEMatrices, free: np.ndarray) -> np.ndarray:
    """The reference_upper_band of the red-black reduced system of
    K_int[free, free], S = 4I - E^T E / 4 on the free black nodes (i + j
    odd) in ascending order, with E = -K_int[red, black] cut by fancy
    indexing at the free red and black nodes, and S formed by scipy's
    sparse product and sum."""
    nodes = mats.interior[free]
    side = mats.mesh.n + 1
    black = (nodes % side + nodes // side) % 2 == 1
    e = -mats.K_int.tocsr()[np.ix_(free[~black], free[black])]
    return reference_upper_band(4.0 * sp.identity(e.shape[1]) - (e.T @ e) / 4.0)


def factor_kernel(fact):
    """The Factorization that factored a free set: the reduced one of a
    linalg.RedBlackFactorization, else fact itself."""
    return getattr(fact, "reduced", fact)


def assert_same_band(got: np.ndarray, expected: np.ndarray):
    """The two bands have the same shape and the same bytes, in the
    Fortran order LAPACK reads."""
    assert got.flags.f_contiguous
    assert got.shape == expected.shape
    assert got.tobytes(order="F") == expected.tobytes(order="F")


def assert_same_level_cut(handed, cut, order):
    """What a level handed to Factorization is its cut (reference_level_cut):
    the upper band on a banded level, else the CSC matrix."""
    if order is None:
        assert_same_band(handed, cut)
    else:
        assert_same_csc(handed, cut)


def reference_nd_cut(a: sp.spmatrix, mesh: Mesh, nodes: np.ndarray):
    """a[nodes, nodes] for full-node indices, with the nodes in
    recursive_nested_dissection order, cut by fancy indexing in CSR form
    and converted to CSC.  Returns the matrix and order, the index into
    nodes of the node at each position."""
    rank = np.empty(mesh.num_nodes, dtype=int)
    rank[recursive_nested_dissection(mesh.n)] = np.arange(mesh.num_nodes)
    order = np.argsort(rank[nodes])
    ordered = nodes[order]
    return a.tocsr()[np.ix_(ordered, ordered)].tocsc(), order


def reference_free_submatrix(mats: FEMatrices, free: np.ndarray):
    """K_int[free, free] in nested-dissection order (reference_nd_cut of
    K at the free interior nodes) and the index into free at each
    position."""
    return reference_nd_cut(mats.K, mats.mesh, mats.interior[free])


def reference_level_cut(a: sp.spmatrix, mats: FEMatrices, nodes: np.ndarray):
    """a[nodes, nodes] for sorted full-node indices and the order, as the
    level of mats hands them to Factorization: on a banded level the
    reference_upper_band of the nodes in ascending order, cut by fancy
    indexing in CSR form, and no order; on any other level reference_nd_cut."""
    if mats.banded:
        return reference_upper_band(a.tocsr()[np.ix_(nodes, nodes)]), None
    return reference_nd_cut(a, mats.mesh, nodes)


def norm(v: NodalFunction, kind: str, mats: "FEMatrices | None" = None) -> float:
    """Discrete L2, H1 or H1-seminorm of a P1 function on W_h."""
    if mats is None:
        mats = build_matrices(v.mesh)
    return vector_norm(v.values, kind, mats.K, mats.M)


def brute_force_oracle(
    z: NodalFunction,
    psi: NodalFunction,
    mats: FEMatrices,
    tol: float = 1e-10,
) -> ObstacleSolution:
    """KKT enumeration over all active sets; independent of the PDAS path.

    Only usable on meshes with at most 16 interior nodes.
    """
    psi_full = psi.values
    if np.any(psi_full[mats.mesh.boundary_mask] >= 0.0):
        raise InfeasibleConstraintsError(
            "obstacle must be negative on the boundary (zero boundary data)"
        )
    inter = mats.interior
    m = inter.size
    if m > 16:
        raise ValueError(f"oracle limited to 16 interior nodes, mesh has {m}")
    psi_int = psi_full[inter]
    load = (mats.M @ z.values)[inter]
    k_dense = mats.K_int.toarray()

    best = None
    for bits in range(1 << m):
        act_mask = np.array([(bits >> k) & 1 for k in range(m)], dtype=bool)
        free = np.flatnonzero(~act_mask)
        act = np.flatnonzero(act_mask)
        w = np.empty(m)
        w[act] = psi_int[act]
        if free.size:
            rhs_f = load[free] - k_dense[np.ix_(free, act)] @ psi_int[act]
            w[free] = np.linalg.solve(k_dense[np.ix_(free, free)], rhs_f)
        lam = k_dense @ w - load
        feasible = np.all(w >= psi_int - tol * (1.0 + np.abs(psi_int)))
        dual_ok = np.all(lam[act] >= -tol)
        if feasible and dual_ok and np.all(np.abs(lam[free]) <= tol * (1.0 + np.abs(load[free]))):
            candidate = (w, lam)
            if best is None:
                best = candidate
    if best is None:
        raise RuntimeError("enumeration found no KKT point; assembly is broken")

    w, lam = best
    inactive, strict, biactive = classify_nodes(w, lam, psi_int)
    return ObstacleSolution(
        w=w,
        lam=lam,
        inactive=inactive,
        strictly_active=strict,
        biactive=biactive,
        pdas_iterations=0,
        active_masks=(),
        coarse_pdas_iterations=(),
    )


def read_vtk(path: str):
    """Parse files produced by cli.write_vtk (round-trip checks)."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    it = iter(tokens)
    points = None
    cells = None
    fields = {}
    line = next(it)
    while True:
        try:
            if line.startswith("POINTS"):
                count = int(line.split()[1])
                points = np.array(
                    [[float(t) for t in next(it).split()] for _ in range(count)]
                )
                line = next(it)
            elif line.startswith("CELLS"):
                count = int(line.split()[1])
                cells = np.array(
                    [[int(t) for t in next(it).split()[1:]] for _ in range(count)]
                )
                line = next(it)
            elif line.startswith("SCALARS"):
                name = line.split()[1]
                next(it)  # LOOKUP_TABLE
                vals = []
                for line in it:
                    if not line or not line[0].isdigit() and line[0] != "-":
                        break
                    vals.append(float(line))
                else:
                    line = ""
                fields[name] = np.array(vals)
            else:
                line = next(it)
        except StopIteration:
            break
    return points, cells, fields


@pytest.fixture
def mesh4():
    return mesh_and_mats(4)


@pytest.fixture
def mesh8():
    return mesh_and_mats(8)


@pytest.fixture
def mesh16():
    return mesh_and_mats(16)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
