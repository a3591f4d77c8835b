import numpy as np
import pytest
import scipy.sparse as sp

from obstaclecontrol.assembly import vector_norm
from obstaclecontrol.linalg import (
    CgNoConvergenceError,
    Factorization,
    NotPositiveDefiniteError,
    cg_self_adjoint,
    solve_block_newton,
)
from obstaclecontrol.newton import newton_step_matrix_apply, solve_newton_system_cg
from obstaclecontrol.operators import DerivativeSelector

from conftest import mesh_and_mats, solve


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
    y = solve_block_newton(
        mats.A, mats.M, sp.csr_matrix((0, 0)), np.array([], dtype=int), 1e-5, rhs,
        mesh.nested_dissection,
    )
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
    free_local = sel.free
    k_ff = mats.K_int[np.ix_(free_local, free_local)]
    y = solve_block_newton(
        mats.A, mats.M, k_ff, mats.interior[free_local], alpha, rhs, mesh.nested_dissection
    )
    assert np.linalg.norm(y - expected) <= 1e-8 * np.linalg.norm(expected)


def test_block_solve_large_alpha_limit(rng):
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    free_local = sel.free
    k_ff = mats.K_int[np.ix_(free_local, free_local)]
    y = solve_block_newton(
        mats.A, mats.M, k_ff, mats.interior[free_local], 1e12, rhs, mesh.nested_dissection
    )
    assert np.linalg.norm(y - rhs) <= 1e-6 * np.linalg.norm(rhs)


@pytest.mark.parametrize("n", [8, 16])
def test_block_solve_matches_cg_at_tiny_alpha(n, rng):
    # at alpha = 1e-10 the block system is badly scaled; factoring it in
    # node-interleaved order without pivoting must keep full accuracy
    mesh, mats = mesh_and_mats(n)
    alpha = 1e-10
    for _ in range(3):
        sel = _random_selector(mats, rng, fraction=rng.uniform(0.1, 0.7))
        rhs = rng.standard_normal(mesh.num_nodes)
        free_local = sel.free
        k_ff = mats.K_int[np.ix_(free_local, free_local)]
        direct = solve_block_newton(
            mats.A, mats.M, k_ff, mats.interior[free_local], alpha, rhs, mesh.nested_dissection
        )
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
