import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._compressed import _cs_matrix
from scipy.sparse._coo import _coo_base

from obstaclecontrol import linalg
from obstaclecontrol.assembly import (
    NodalFunction,
    build_matrices,
    interpolate,
    vector_norm,
)
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.operators import extend_interior

from conftest import mesh_and_mats, norm, reference_matrices, sum_over_triangles


def test_stiffness_center_row_n2():
    # hand assembly: the two-triangle element matrices sum to the 5-point stencil
    mesh, _ = mesh_and_mats(2)
    K = build_matrices(mesh).K.toarray()
    assert K[4, 4] == pytest.approx(4.0)
    for neighbor in (1, 3, 5, 7):  # axis neighbors
        assert K[4, neighbor] == pytest.approx(-1.0)
    for corner in (0, 2, 6, 8):  # diagonal neighbors vanish on this mesh
        assert K[4, corner] == pytest.approx(0.0)


def test_stiffness_constants_in_kernel():
    mesh, _ = mesh_and_mats(8)
    K = build_matrices(mesh).K
    ones = np.ones(mesh.num_nodes)
    assert np.max(np.abs(K @ ones)) < 1e-13


def test_stiffness_nonnegative_energy(rng):
    mesh, _ = mesh_and_mats(4)
    K = build_matrices(mesh).K
    for _ in range(20):
        x = rng.standard_normal(mesh.num_nodes)
        assert x @ (K @ x) >= -1e-12


@pytest.mark.parametrize("n", [3, 10, 12, 100])
def test_stiffness_entries_are_exact(n):
    # the stencil entries of a Friedrichs-Keller mesh, with no rounding
    # error at mesh sizes that are not powers of two
    mesh = build_friedrichs_keller(n)
    K = build_matrices(mesh).K
    assert np.all(np.isin(K.data, [-1.0, -0.5, 0.0, 1.0, 2.0, 4.0]))
    assert np.all(K @ np.ones(mesh.num_nodes) == 0.0)


def test_stiffness_is_m_matrix():
    mesh, _ = mesh_and_mats(8)
    K = build_matrices(mesh).K.tocoo()
    off = K.row != K.col
    assert np.all(K.data[off] <= 1e-14)


def test_mass_total_is_domain_area():
    for n in (2, 5, 8):
        mesh, _ = mesh_and_mats(n)
        M = build_matrices(mesh).M
        assert abs(M.sum() - 1.0) < 1e-12


def test_mass_center_entry_n2():
    # six incident triangles of area 1/8, each contributing 2*area/12
    mesh, _ = mesh_and_mats(2)
    M = build_matrices(mesh).M.toarray()
    assert M[4, 4] == pytest.approx(6 * 2 * (1 / 8) / 12)


def test_mass_entries_nonnegative():
    mesh, _ = mesh_and_mats(4)
    assert build_matrices(mesh).M.min() >= 0.0


def test_h1_is_sum_and_symmetric():
    mesh, mats = mesh_and_mats(4)
    K, M = mats.K, mats.M
    A = mats.A
    assert abs(A - (K + M)).max() == 0.0
    assert abs(A - A.T).max() == 0.0
    ones = np.ones(mesh.num_nodes)
    assert np.allclose(A @ ones, M @ ones)


def test_h1_smallest_eigenvalue_bounded_below_by_mass():
    mesh, mats = mesh_and_mats(4)
    A = mats.A.toarray()
    M = build_matrices(mesh).M.toarray()
    assert np.linalg.eigvalsh(A).min() >= np.linalg.eigvalsh(M).min() > 0.0


def test_restrict_to_interior_matches_five_point_stencil():
    _, mats = mesh_and_mats(4)
    K_int = mats.K_int.toarray()
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
    one = NodalFunction(np.ones(mesh.num_nodes), mesh)
    assert norm(one, "L2") == pytest.approx(1.0, abs=1e-12)
    assert norm(one, "H1_semi") == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("kind", ["L2", "H1", "H1_semi"])
def test_norm_below_the_square_range_scales_exactly(kind):
    # the quadratic form of a vector below about 1e-154 is subnormal or 0;
    # the norm is then taken of the vector scaled by a power of two, which
    # is exact, so it is the norm of the unscaled vector times that power
    mesh, mats = mesh_and_mats(8)
    v = interpolate(lambda x1, x2: 1 + x1 * x2, mesh).values
    for k in (520, 540, 1000):
        got = vector_norm(np.ldexp(v, -k), kind, mats.K, mats.M)
        assert type(got) is float
        assert got == math.ldexp(vector_norm(v, kind, mats.K, mats.M), -k)
    # the seminorm of a constant is 0 up to round-off at every scale
    assert vector_norm(np.full(mesh.num_nodes, 1e-200), "H1_semi", mats.K, mats.M) <= 1e-207
    # a large vector is not scaled: its form overflows to inf or NaN
    assert not math.isfinite(vector_norm(np.ldexp(v, 540), kind, mats.K, mats.M))


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
        np.random.default_rng(seed).uniform(-10, 10, mesh.num_nodes), mesh
    )
    l2, h1, semi = (norm(v, k) for k in ("L2", "H1", "H1_semi"))
    assert h1**2 == pytest.approx(l2**2 + semi**2, rel=1e-12, abs=1e-12)


def test_norm_zero_extends_interior_functions():
    # a V_h function is an array on the interior nodes; extend_interior
    # gives the W_h coefficients, zero on the boundary, that a norm reads
    mesh, mats = mesh_and_mats(4)
    inter = mesh.interior
    vals = np.arange(1.0, inter.size + 1)
    full = np.zeros(mesh.num_nodes)
    full[inter] = vals
    extended = extend_interior(vals, mats)
    assert np.array_equal(extended, full)
    w = NodalFunction(full, mesh)
    for kind in ("L2", "H1", "H1_semi"):
        assert vector_norm(extended, kind, mats.K, mats.M) == norm(w, kind, mats)


def test_galerkin_consistency_for_affine_products():
    mesh, _ = mesh_and_mats(6)
    M = build_matrices(mesh).M
    f = interpolate(lambda x1, x2: 1.0 + x1, mesh).values
    g = interpolate(lambda x1, x2: 2.0 - x2, mesh).values
    # exact integral of (1+x1)(2-x2) over the unit square: 3*3/2/... compute:
    # int (1+x1) dx1 = 3/2; int (2-x2) dx2 = 3/2 -> 9/4
    assert f @ (M @ g) == pytest.approx(9 / 4, abs=1e-12)


def test_nodal_function_validation():
    mesh, _ = mesh_and_mats(2)
    with pytest.raises(ValueError):
        NodalFunction(np.zeros(5), mesh)
    with pytest.raises(ValueError):  # a V_h vector, on the interior nodes only
        NodalFunction(np.zeros(mesh.interior.size), mesh)
    with pytest.raises(ValueError):
        NodalFunction(np.full(mesh.num_nodes, np.inf), mesh)


def test_matrices_exactly_symmetric():
    _, mats = mesh_and_mats(5)
    for mat in (mats.K, mats.M, mats.A):
        assert abs(mat - mat.T).max() == 0.0


def _assert_same_arrays(got, expected):
    """The two compressed matrices store the same entries in the same
    order, byte for byte, explicit zeros and index dtypes included."""
    assert got.format == expected.format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
def test_stencil_is_the_triangle_assembly_at_powers_of_two(n):
    # every triangle's area h^2/2 is exact here, and each entry of M sums
    # equal copies, so the order of the triangle sum does not show
    mesh = build_friedrichs_keller(n)
    got, expected = build_matrices(mesh), reference_matrices(mesh)
    for name in ("K", "M", "A", "K_int"):
        _assert_same_arrays(getattr(got, name), getattr(expected, name))
    assert got.K_int.has_canonical_format


@pytest.mark.parametrize("n", [3, 17, 24, 33])
def test_stencil_at_other_sizes(n):
    # K is exact at every n.  The triangle sum of M runs over signed areas
    # that carry round-off (each coordinate difference is off by up to
    # n eps relative to h), so the two M agree only to that; the stencil's
    # M is the exact value count * k / (24 n^2), with k = 2 on the
    # diagonal and 1 off it, rounded within 4 ulps
    mesh = build_friedrichs_keller(n)
    got, expected = build_matrices(mesh), reference_matrices(mesh)
    _assert_same_arrays(got.K, expected.K)
    _assert_same_arrays(got.K_int, expected.K_int)
    assert got.K_int.has_canonical_format
    for name in ("M", "A"):
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.abs(got.M.data - expected.M.data).max() > 0.0
    assert np.all(np.abs(got.M.data - expected.M.data) <= 4 * n * np.spacing(expected.M.data))
    assert got.A.data.tobytes() == (got.K.data + got.M.data).tobytes()
    # the triangles at each node and edge, on the same pattern
    count = sum_over_triangles(mesh, np.ones((mesh.num_triangles, 3, 3)))
    m = got.M.tocoo()
    exact = count.data * np.where(m.row == m.col, 2.0, 1.0) / (24.0 * n * n)
    assert np.all(np.abs(m.data - exact) <= 4 * np.spacing(exact))


def test_build_matrices_cuts_no_submatrix(monkeypatch):
    # K_int is written from the stencil of the interior grid, not cut from K
    calls = []
    monkeypatch.setattr(linalg, "principal_submatrix", lambda *args: calls.append(args))
    build_matrices(build_friedrichs_keller(16))
    assert calls == []


@pytest.mark.parametrize("n", [3, 5, 8])
def test_stiffness_pattern_is_the_seven_point_stencil(n):
    # offsets -(n+2), -(n+1), -1, 0, 1, n+1, n+2 where they stay in the
    # square, with K's 0.0 stored on the ll->ur diagonal edges, so the
    # band of K_int reads b = n (the interior offset of the diagonal)
    mesh = build_friedrichs_keller(n)
    K = build_matrices(mesh).K
    side = n + 1
    for node in range(mesh.num_nodes):
        j, i = divmod(node, side)
        cols = [
            (j + dj) * side + i + di
            for di, dj in ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))
            if 0 <= i + di <= n and 0 <= j + dj <= n
        ]
        row = K.indices[K.indptr[node]:K.indptr[node + 1]]
        assert row.tolist() == cols
        data = K.data[K.indptr[node]:K.indptr[node + 1]]
        diagonal = np.abs(row - node) == side + 1
        assert np.all(data[diagonal] == 0.0) and not np.signbit(data[diagonal]).any()
        assert np.all(data[~diagonal] != 0.0)
    mats = build_matrices(mesh)
    keep = np.ones(mats.interior.size, dtype=bool)
    assert linalg.upper_band(mats.kint_upper, keep).shape[0] == n + 1


def test_build_matrices_sorts_and_sums_nothing(monkeypatch):
    # no COO matrix is converted, and no index array is sorted or summed
    mesh = build_friedrichs_keller(64)
    calls = []
    for cls, name in ((_coo_base, "tocsr"), (_cs_matrix, "sum_duplicates"), (_cs_matrix, "sort_indices")):
        method = getattr(cls, name)

        def spy(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    reference_matrices(mesh)
    assert {"tocsr", "sum_duplicates"} <= set(calls)  # the spies see the triangle sum
    calls.clear()
    build_matrices(mesh)
    assert calls == []
