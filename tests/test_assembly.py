import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstaclecontrol.assembly import (
    SPACE_V,
    SPACE_W,
    NodalFunction,
    interpolate,
    mass_matrix,
    restrict_to_interior,
    stiffness_matrix,
)
from obstaclecontrol.mesh import build_friedrichs_keller

from conftest import mesh_and_mats, norm


def test_stiffness_center_row_n2():
    # hand assembly: the two-triangle element matrices sum to the 5-point stencil
    mesh, _ = mesh_and_mats(2)
    K = stiffness_matrix(mesh).toarray()
    assert K[4, 4] == pytest.approx(4.0)
    for neighbor in (1, 3, 5, 7):  # axis neighbors
        assert K[4, neighbor] == pytest.approx(-1.0)
    for corner in (0, 2, 6, 8):  # diagonal neighbors vanish on this mesh
        assert K[4, corner] == pytest.approx(0.0)


def test_stiffness_constants_in_kernel():
    mesh, _ = mesh_and_mats(8)
    K = stiffness_matrix(mesh)
    ones = np.ones(mesh.num_nodes)
    assert np.max(np.abs(K @ ones)) < 1e-13


def test_stiffness_nonnegative_energy(rng):
    mesh, _ = mesh_and_mats(4)
    K = stiffness_matrix(mesh)
    for _ in range(20):
        x = rng.standard_normal(mesh.num_nodes)
        assert x @ (K @ x) >= -1e-12


def test_stiffness_is_m_matrix():
    mesh, _ = mesh_and_mats(8)
    K = stiffness_matrix(mesh).tocoo()
    off = K.row != K.col
    assert np.all(K.data[off] <= 1e-14)


def test_mass_total_is_domain_area():
    for n in (2, 5, 8):
        mesh, _ = mesh_and_mats(n)
        M = mass_matrix(mesh)
        assert abs(M.sum() - 1.0) < 1e-12


def test_mass_center_entry_n2():
    # six incident triangles of area 1/8, each contributing 2*area/12
    mesh, _ = mesh_and_mats(2)
    M = mass_matrix(mesh).toarray()
    assert M[4, 4] == pytest.approx(6 * 2 * (1 / 8) / 12)


def test_mass_entries_nonnegative():
    mesh, _ = mesh_and_mats(4)
    assert mass_matrix(mesh).min() >= 0.0


def test_h1_is_sum_and_symmetric():
    mesh, mats = mesh_and_mats(4)
    K, M = stiffness_matrix(mesh), mass_matrix(mesh)
    A = mats.A
    assert abs(A - (K + M)).max() == 0.0
    assert abs(A - A.T).max() == 0.0
    ones = np.ones(mesh.num_nodes)
    assert np.allclose(A @ ones, M @ ones)


def test_h1_smallest_eigenvalue_bounded_below_by_mass():
    mesh, mats = mesh_and_mats(4)
    A = mats.A.toarray()
    M = mass_matrix(mesh).toarray()
    assert np.linalg.eigvalsh(A).min() >= np.linalg.eigvalsh(M).min() > 0.0


def test_restrict_to_interior_matches_five_point_stencil():
    mesh, _ = mesh_and_mats(4)
    inter = mesh.interior
    K_int = restrict_to_interior(stiffness_matrix(mesh), mesh, inter).toarray()
    # independent construction of the Dirichlet 5-point matrix on the 3x3 grid
    m = 3
    dense = np.zeros((9, 9))
    for j in range(m):
        for i in range(m):
            k = j * m + i
            dense[k, k] = 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    dense[k, jj * m + ii] = -1.0
    assert np.allclose(K_int, dense)


def test_restrict_empty_set():
    mesh, _ = mesh_and_mats(4)
    sub = restrict_to_interior(stiffness_matrix(mesh), mesh, np.array([], dtype=int))
    assert sub.shape == (0, 0)


def test_restrict_rejects_bad_indices():
    mesh, _ = mesh_and_mats(4)
    K = stiffness_matrix(mesh)
    with pytest.raises(ValueError):
        restrict_to_interior(K, mesh, np.array([mesh.num_nodes]))
    with pytest.raises(ValueError):
        restrict_to_interior(K, mesh, np.array([0]))  # boundary node


def test_interpolate_paper_fields():
    mesh, _ = mesh_and_mats(4)
    y_d = interpolate(lambda x1, x2: -x1 - x2, mesh)
    i = np.round(mesh.nodes[:, 0] * 4)
    j = np.round(mesh.nodes[:, 1] * 4)
    assert np.allclose(y_d.values, -(i + j) / 4)
    psi = interpolate(lambda x1, x2: np.full_like(x1, -5.0), mesh)
    assert np.all(psi.values == -5.0)


def test_interpolate_affine_exact_at_midpoints():
    mesh, _ = mesh_and_mats(3)
    f = lambda x1, x2: 2.0 + 3.0 * x1 - 0.5 * x2
    v = interpolate(f, mesh).values
    for tri in mesh.triangles:
        mid = mesh.nodes[tri].mean(axis=0)
        assert v[tri].mean() == pytest.approx(f(mid[0], mid[1]))


def test_interpolate_rejects_nonfinite():
    mesh, _ = mesh_and_mats(2)
    with pytest.raises(ValueError):
        interpolate(lambda x1, x2: np.where(x1 > 0.4, np.nan, 0.0), mesh)


def test_norm_constants():
    mesh, _ = mesh_and_mats(4)
    one = NodalFunction(np.ones(mesh.num_nodes), SPACE_W, mesh)
    assert norm(one, "L2") == pytest.approx(1.0, abs=1e-12)
    assert norm(one, "H1_semi") == pytest.approx(0.0, abs=1e-7)


def test_norm_of_x1():
    mesh, _ = mesh_and_mats(8)
    v = interpolate(lambda x1, x2: x1, mesh)
    # x1 is in W_h, so the mass matrix integrates it exactly
    assert norm(v, "L2") == pytest.approx(1 / np.sqrt(3), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_norm_pythagoras(seed):
    mesh, _ = mesh_and_mats(4)
    v = NodalFunction(
        np.random.default_rng(seed).uniform(-10, 10, mesh.num_nodes), SPACE_W, mesh
    )
    l2, h1, semi = (norm(v, k) for k in ("L2", "H1", "H1_semi"))
    assert h1**2 == pytest.approx(l2**2 + semi**2, rel=1e-12, abs=1e-12)


def test_norm_zero_extends_interior_functions():
    mesh, _ = mesh_and_mats(4)
    inter = mesh.interior
    vals = np.arange(1.0, inter.size + 1)
    v = NodalFunction(vals, SPACE_V, mesh)
    full = np.zeros(mesh.num_nodes)
    full[inter] = vals
    w = NodalFunction(full, SPACE_W, mesh)
    for kind in ("L2", "H1", "H1_semi"):
        assert norm(v, kind) == pytest.approx(norm(w, kind), rel=1e-14)


def test_galerkin_consistency_for_affine_products():
    mesh, _ = mesh_and_mats(6)
    M = mass_matrix(mesh)
    f = interpolate(lambda x1, x2: 1.0 + x1, mesh).values
    g = interpolate(lambda x1, x2: 2.0 - x2, mesh).values
    # exact integral of (1+x1)(2-x2) over the unit square: 3*3/2/... compute:
    # int (1+x1) dx1 = 3/2; int (2-x2) dx2 = 3/2 -> 9/4
    assert f @ (M @ g) == pytest.approx(9 / 4, abs=1e-12)


def test_nodal_function_validation():
    mesh, _ = mesh_and_mats(2)
    with pytest.raises(ValueError):
        NodalFunction(np.zeros(5), SPACE_W, mesh)
    with pytest.raises(ValueError):
        NodalFunction(np.array([np.inf]), SPACE_V, mesh)


def test_matrices_exactly_symmetric():
    mesh, mats = mesh_and_mats(5)
    for mat in (stiffness_matrix(mesh), mass_matrix(mesh), mats.A):
        assert abs(mat - mat.T).max() == 0.0
