import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obstaclecontrol.assembly import (
    SPACE_V,
    FEMatrices,
    NodalFunction,
    build_matrices,
    mass_matrix,
    stiffness_matrix,
    vector_norm,
)
from obstaclecontrol.linalg import Factorization
from obstaclecontrol.mesh import Mesh, build_friedrichs_keller
from obstaclecontrol.obstacle import (
    InfeasibleConstraintsError,
    ObstacleSolution,
    classify_nodes,
)

_CACHE = {}


def mesh_and_mats(n):
    if n not in _CACHE:
        mesh = build_friedrichs_keller(n)
        _CACHE[n] = (mesh, build_matrices(mesh))
    return _CACHE[n]


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
    nodes in ascending order, cut by fancy indexing in CSR form and
    converted to CSC, and no order; on any other level reference_nd_cut."""
    if mats.banded:
        return a.tocsr()[np.ix_(nodes, nodes)].tocsc(), None
    return reference_nd_cut(a, mats.mesh, nodes)


def norm(v: NodalFunction, kind: str, mats: "FEMatrices | None" = None) -> float:
    """Discrete L2, H1 or H1-seminorm of a P1 function.

    V_h vectors are zero-extended to the full node set first.
    """
    if mats is None:
        K, M = stiffness_matrix(v.mesh), mass_matrix(v.mesh)
    else:
        K, M = mats.K, mats.M
    return vector_norm(v.extended(), kind, K, M)


def brute_force_oracle(
    z: NodalFunction,
    psi: NodalFunction,
    mesh: Mesh,
    mats: FEMatrices,
    tol: float = 1e-10,
) -> ObstacleSolution:
    """KKT enumeration over all active sets; independent of the PDAS path.

    Only usable on meshes with at most 16 interior nodes.
    """
    psi_full = psi.extended()
    if np.any(psi_full[mesh.boundary_mask] >= 0.0):
        raise InfeasibleConstraintsError(
            "obstacle must be negative on the boundary (zero boundary data)"
        )
    inter = mats.interior
    m = inter.size
    if m > 16:
        raise ValueError(f"oracle limited to 16 interior nodes, mesh has {m}")
    psi_int = psi_full[inter]
    load = (mats.M @ z.extended())[inter]
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
        w=NodalFunction(w, SPACE_V, mesh),
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
