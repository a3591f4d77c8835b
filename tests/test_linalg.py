import numpy as np
import pytest
import scipy.sparse as sp

from obstaclecontrol import linalg
from obstaclecontrol.assembly import build_matrices, vector_norm
from obstaclecontrol.linalg import (
    CgNoConvergenceError,
    Factorization,
    NotPositiveDefiniteError,
    cg_self_adjoint,
    solve_block_newton,
)
from obstaclecontrol.newton import newton_step_matrix_apply, solve_newton_system_cg
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.operators import DerivativeSelector

from conftest import (
    mesh_and_mats,
    reference_block_matrix,
    reference_block_newton,
    reference_free_submatrix,
    solve,
)


def test_identity_roundtrip():
    f = Factorization(sp.identity(7, format="csc"))
    b = np.arange(7.0)
    assert np.allclose(solve(f, b), b)


def test_two_by_two_hand_solve():
    a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    f = Factorization(a)
    assert np.allclose(f.solve(np.array([3.0, 3.0])), [1.0, 1.0])


def test_helmholtz_constants():
    mesh, mats = mesh_and_mats(4)
    f = Factorization(mats.A)
    b = mats.M @ np.ones(mesh.num_nodes)
    x = f.solve(b)
    assert np.max(np.abs(x - 1.0)) < 1e-10


def test_residual_bound(rng):
    mesh, mats = mesh_and_mats(8)
    f = Factorization(mats.A)
    for _ in range(5):
        b = rng.standard_normal(mesh.num_nodes)
        x = f.solve(b)
        assert np.linalg.norm(mats.A @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_deterministic_roundtrip(rng):
    mesh, mats = mesh_and_mats(4)
    b = rng.standard_normal(mesh.num_nodes)
    x1 = Factorization(mats.A).solve(b)
    x2 = Factorization(mats.A).solve(b)
    assert np.array_equal(x1, x2)


def test_rejects_indefinite():
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefiniteError):
        Factorization(a)


def test_dimension_mismatch():
    f = Factorization(sp.identity(3, format="csc"))
    with pytest.raises(ValueError):
        f.solve(np.zeros(4))


def test_empty_factorization():
    f = Factorization(sp.csc_matrix((0, 0)))
    out = f.solve(np.zeros(0))
    assert out.shape == (0,)


def _random_selector(mats, rng, fraction=0.4):
    m = mats.interior.size
    return DerivativeSelector.from_node_set(
        np.flatnonzero(rng.random(m) < fraction), mats
    )


def test_block_solve_all_constrained_is_identity(rng):
    mesh, mats = mesh_and_mats(4)
    rhs = rng.standard_normal(mesh.num_nodes)
    y = solve_block_newton(mats.newton_pattern, np.array([], dtype=int), 1e-5, rhs)
    assert np.array_equal(y, rhs)


def test_block_solve_matches_dense_probe(rng):
    # build the dense operator column-by-column through repeated application
    mesh, mats = mesh_and_mats(4)
    alpha = 1e-3
    sel = DerivativeSelector.from_node_set(np.array([], dtype=int), mats)
    nw = mesh.num_nodes
    dense = np.empty((nw, nw))
    for k in range(nw):
        e = np.zeros(nw)
        e[k] = 1.0
        dense[:, k] = newton_step_matrix_apply(e, sel, alpha, mats)
    rhs = rng.standard_normal(nw)
    expected = np.linalg.solve(dense, rhs)
    y = solve_block_newton(mats.newton_pattern, sel.free, alpha, rhs)
    assert np.linalg.norm(y - expected) <= 1e-8 * np.linalg.norm(expected)


def test_block_solve_large_alpha_limit(rng):
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    y = solve_block_newton(mats.newton_pattern, sel.free, 1e12, rhs)
    assert np.linalg.norm(y - rhs) <= 1e-6 * np.linalg.norm(rhs)


def _capture_splu(monkeypatch):
    """Record a copy of every matrix handed to SuperLU."""
    captured = []
    real_splu = linalg.spla.splu

    def capturing_splu(a, *args, **kwargs):
        captured.append(a.copy())
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", capturing_splu)
    return captured


def _assert_same_csc(got, expected):
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-8, 1e-10])
@pytest.mark.parametrize("free_set", ["empty", "full", "random"])
def test_block_solve_factors_the_reference_system(n, alpha, free_set, rng, monkeypatch):
    # the system cut from the cached pattern is the bmat construction, entry
    # for entry, so SuperLU computes the same factors and the same solution
    mesh, mats = mesh_and_mats(n)
    m = mats.interior.size
    free = {
        "empty": np.array([], dtype=int),
        "full": np.arange(m),
        "random": np.flatnonzero(rng.random(m) < rng.uniform(0.2, 0.8)),
    }[free_set]
    rhs = rng.standard_normal(mesh.num_nodes)
    captured = _capture_splu(monkeypatch)
    y = solve_block_newton(mats.newton_pattern, free, alpha, rhs)
    assert len(captured) == (1 if free.size else 0)
    if free.size:
        _assert_same_csc(captured[0], reference_block_matrix(mats, free, alpha)[0])
    assert np.array_equal(y, reference_block_newton(mats, free, alpha, rhs))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_free_factorization_factors_the_reference_submatrix(n, rng, monkeypatch):
    # explicit zeros of K_int stay in the cut: dropping them changes the MMD order
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size
    captured = _capture_splu(monkeypatch)
    for _ in range(3):
        free = np.flatnonzero(rng.random(m) < 0.6)
        if free.size in (0, m):
            continue
        captured.clear()
        mats.free_factorization(free)
        assert len(captured) == 1
        _assert_same_csc(captured[0], reference_free_submatrix(mats, free))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_kint_and_a_are_the_reference_csc_matrices(n):
    # the factored matrices are stored once, in the form SuperLU takes
    mats = build_matrices(build_friedrichs_keller(n))
    interior = mats.interior
    assert mats.K_int.format == "csc" and mats.A.format == "csc"
    _assert_same_csc(mats.K_int, mats.K[np.ix_(interior, interior)].tocsc())
    _assert_same_csc(mats.A, (mats.K + mats.M).tocsc())


@pytest.mark.parametrize("n", [8, 16])
def test_block_solve_matches_cg_at_tiny_alpha(n, rng):
    # at alpha = 1e-10 the block system is badly scaled; factoring it in
    # node-interleaved order without pivoting must keep full accuracy
    mesh, mats = mesh_and_mats(n)
    alpha = 1e-10
    for _ in range(3):
        sel = _random_selector(mats, rng, fraction=rng.uniform(0.1, 0.7))
        rhs = rng.standard_normal(mesh.num_nodes)
        direct = solve_block_newton(mats.newton_pattern, sel.free, alpha, rhs)
        iterative = solve_newton_system_cg(rhs, sel, alpha, mats, tol=1e-14)
        diff = vector_norm(direct - iterative, "L2", mats.K, mats.M)
        assert diff <= 1e-9 * vector_norm(iterative, "L2", mats.K, mats.M)


def _m_inner(mats):
    return lambda x, z: float(x @ (mats.M @ z))


def test_cg_raises_at_iteration_cap(rng):
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    with pytest.raises(CgNoConvergenceError):
        cg_self_adjoint(
            lambda v: newton_step_matrix_apply(v, sel, 1e-5, mats), rhs, _m_inner(mats),
            max_iter=2,
        )


@pytest.mark.parametrize("sign", [-1.0, 0.0])
def test_cg_raises_on_nonpositive_curvature(sign, rng):
    mesh, mats = mesh_and_mats(4)
    rhs = rng.standard_normal(mesh.num_nodes)
    with pytest.raises(NotPositiveDefiniteError):
        cg_self_adjoint(lambda v: sign * v, rhs, _m_inner(mats))
