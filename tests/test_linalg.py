import numpy as np
import pytest
import scipy.sparse as sp

from obstaclecontrol import linalg, newton
from obstaclecontrol.assembly import build_matrices, vector_norm
from obstaclecontrol.linalg import (
    BlockFactorizationError,
    CgNoConvergenceError,
    Factorization,
    NotPositiveDefiniteError,
    cg_self_adjoint,
    solve_block_newton,
)
from obstaclecontrol.newton import NewtonConfig, newton_step_matrix_apply, solve_newton_system_cg
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.operators import DerivativeSelector

from conftest import (
    assert_same_csc,
    mesh_and_mats,
    reference_block_matrix,
    reference_block_newton,
    reference_free_submatrix,
    reference_nd_cut,
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


def test_rejects_indefinite_with_a_zero_pivot():
    # a zero pivot makes SuperLU exchange rows, after which every pivot is positive
    a = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues 1, -1
    message = r"^2 x 2 matrix: row exchange at an exactly zero pivot$"
    with pytest.raises(NotPositiveDefiniteError, match=message):
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


def test_block_solve_zero_pivot_names_the_free_set(rng):
    # at alpha = 1e-300 the scaled mass block is so large that
    # eliminating it leaves an exactly zero pivot
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    message = rf"^Newton block system with \|free\| = {sel.free.size}: "
    with pytest.raises(BlockFactorizationError, match=message):
        solve_block_newton(mats.newton_pattern, sel.free, 1e-300, rhs)


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
        assert_same_csc(captured[0], reference_block_matrix(mats, free, alpha)[0])
    assert np.array_equal(y, reference_block_newton(mats, free, alpha, rhs))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_free_factorization_factors_the_reference_submatrix(n, rng, monkeypatch):
    # K_int[free, free] in nested-dissection order, explicit zeros of K_int
    # kept, and every solve is that of a fresh factorization of the cut
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size
    captured = _capture_splu(monkeypatch)
    for _ in range(3):
        free = np.flatnonzero(rng.random(m) < 0.6)
        if free.size in (0, m):
            continue
        captured.clear()
        fact = mats.free_factorization(free)
        assert len(captured) == 1
        expected, order = reference_free_submatrix(mats, free)
        assert_same_csc(captured[0], expected)
        b = np.sin(np.arange(free.size) + 1.0)  # keeps the free sets drawn from rng
        assert np.array_equal(fact.solve(b), Factorization(expected, order).solve(b))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_kint_and_a_factorizations_factor_the_reference_nd_matrices(n, rng, monkeypatch):
    mats = build_matrices(build_friedrichs_keller(n))
    captured = _capture_splu(monkeypatch)
    cases = [
        (lambda: mats.kint_factorization, mats.K, mats.interior),
        (lambda: mats.a_factorization, mats.K + mats.M, np.arange(mats.mesh.num_nodes)),
    ]
    for factorization, a, nodes in cases:
        captured.clear()
        fact = factorization()
        assert len(captured) == 1
        expected, order = reference_nd_cut(a, mats.mesh, nodes)
        assert_same_csc(captured[0], expected)
        b = rng.standard_normal(nodes.size)
        assert np.array_equal(fact.solve(b), Factorization(expected, order).solve(b))


def test_every_superlu_call_of_a_paper_solve_is_natural(monkeypatch):
    # the SPD factors and the block LU are all factored in the order given
    specs = []
    real_splu = linalg.spla.splu

    def recording_splu(a, *args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", recording_splu)
    mesh = build_friedrichs_keller(16)
    mats = build_matrices(mesh)
    report = newton.run(
        NewtonConfig(alpha=1e-5, tol=1e-7), lambda x1, x2: -x1 - x2,
        lambda x1, x2: np.full_like(x1, -5.0), mesh, mats,
    )
    assert report.status == "converged"
    assert len(specs) > report.iterations
    assert set(specs) == {"NATURAL"}


def test_indefinite_nd_ordered_cut_is_rejected(rng):
    # a shift above the smallest eigenvalue of K_ff makes a pivot negative
    mats = build_matrices(build_friedrichs_keller(8))
    free = np.flatnonzero(rng.random(mats.interior.size) < 0.6)
    cut, order = reference_free_submatrix(mats, free)
    smallest = np.linalg.eigvalsh(cut.toarray()).min()
    shifted = (cut - 2 * smallest * sp.identity(free.size, format="csc")).tocsc()
    size = free.size
    message = rf"^{size} x {size} matrix: [1-9]\d* nonpositive pivot\(s\), smallest -\d"
    with pytest.raises(NotPositiveDefiniteError, match=message):
        Factorization(shifted, order)
    Factorization(cut, order)


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_kint_and_a_are_the_reference_csc_matrices(n):
    # the factored matrices are stored once, in the form SuperLU takes
    mats = build_matrices(build_friedrichs_keller(n))
    interior = mats.interior
    assert mats.K_int.format == "csc" and mats.A.format == "csc"
    assert_same_csc(mats.K_int, mats.K[np.ix_(interior, interior)].tocsc())
    assert_same_csc(mats.A, (mats.K + mats.M).tocsc())


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


def _random_cuts(mats, rng, count=3):
    """K_int[free, free] cut from kint_nd at random free sets."""
    nd = mats.kint_nd
    for fraction in rng.uniform(0.2, 0.9, count):
        keep = rng.random(mats.interior.size) < fraction
        if keep.any():
            yield linalg.principal_submatrix(nd.matrix, nd.col, keep)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 32])
def test_solver_matrices_are_certified_and_their_pivots_agree(n, rng):
    # K + M, K_int and every K_int[free, free] are diagonally dominant,
    # so Factorization never reads U; the pivots it would read are positive
    mats = build_matrices(build_friedrichs_keller(n))
    matrices = [mats.A, mats.kint_nd.matrix, *_random_cuts(mats, rng)]
    for a in matrices:
        assert linalg.diagonally_dominant(a)
        assert np.all(linalg._splu(a).U.diagonal() > 0.0)
        Factorization(a)


@pytest.mark.parametrize("dense", [
    [[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]],
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
], ids=["middle", "last", "first"])
def test_matrix_with_an_empty_column_is_rejected(dense):
    a = sp.csc_matrix(np.array(dense))
    a.eliminate_zeros()
    assert not linalg.diagonally_dominant(a)
    with pytest.raises(NotPositiveDefiniteError):
        Factorization(a)


class _FactorsNotRead:
    """A SuperLU object whose factors L and U must not be read."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"{name} was read")
        return getattr(self._lu, name)


def test_solver_factorizations_never_read_l_or_u(rng, monkeypatch):
    real_splu = linalg._splu
    monkeypatch.setattr(linalg, "_splu", lambda a: _FactorsNotRead(real_splu(a)))
    mats = build_matrices(build_friedrichs_keller(16))
    m = mats.interior.size
    free = np.flatnonzero(rng.random(m) < 0.6)
    for fact, size in [
        (mats.a_factorization, mats.mesh.num_nodes),
        (mats.kint_factorization, m),
        (mats.free_factorization(free), free.size),
    ]:
        assert isinstance(fact._lu, _FactorsNotRead)
        assert np.all(np.isfinite(fact.solve(np.ones(size))))
    # a whole paper run, coarse levels and block solves included
    mesh = build_friedrichs_keller(32)
    report = newton.run(
        NewtonConfig(alpha=1e-5, tol=1e-7), lambda x1, x2: -x1 - x2,
        lambda x1, x2: np.full_like(x1, -5.0), mesh, build_matrices(mesh),
    )
    assert report.status == "converged"


def test_non_dominant_spd_matrix_is_accepted_through_the_pivot_read(monkeypatch):
    dense = np.full((3, 3), 0.9) + 0.1 * np.eye(3)  # eigenvalues 2.8, 0.1, 0.1
    a = sp.csc_matrix(dense)
    assert not linalg.diagonally_dominant(a)
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(dense @ Factorization(a).solve(b), b)
    real_splu = linalg._splu
    monkeypatch.setattr(linalg, "_splu", lambda a: _FactorsNotRead(real_splu(a)))
    with pytest.raises(AssertionError, match="U was read"):
        Factorization(a)


def test_newton_block_is_scaled_once_per_alpha(rng, monkeypatch):
    mats = build_matrices(build_friedrichs_keller(8))
    scaled = []
    at = linalg.BlockPattern.at

    def recording_at(self, alpha):
        if self is mats.newton_pattern:
            scaled.append(alpha)
        return at(self, alpha)

    monkeypatch.setattr(linalg.BlockPattern, "at", recording_at)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mats.mesh.num_nodes)
    for alpha in [1e-5, 1e-5, 1e-8, 1e-8, 1e-5]:
        y = newton.solve_newton_system(rhs, sel, alpha, mats)
        assert mats.newton_block(alpha) is mats.newton_block(alpha)
        assert np.array_equal(y, reference_block_newton(mats, sel.free, alpha, rhs))
        fresh = build_matrices(mats.mesh).newton_pattern
        assert np.array_equal(y, solve_block_newton(fresh, sel.free, alpha, rhs))
    assert scaled == [1e-5, 1e-8, 1e-5]
    assert mats.newton_pattern.alpha == 1.0


def test_only_the_unit_pattern_is_scaled():
    mats = build_matrices(build_friedrichs_keller(4))
    with pytest.raises(ValueError, match="alpha = 1e-05, not 1"):
        mats.newton_block(1e-5).at(1e-8)


def test_free_factorization_error_names_the_level_and_the_free_set(rng):
    mats = build_matrices(build_friedrichs_keller(8))
    mats.K_int = -mats.K_int
    free = np.flatnonzero(rng.random(mats.interior.size) < 0.6)
    size = free.size
    message = (
        rf"^level n=8, K_int\[free, free\] with \|free\| = {size}: "
        rf"{size} x {size} matrix: {size} nonpositive pivot\(s\)"
    )
    with pytest.raises(NotPositiveDefiniteError, match=message):
        mats.free_factorization(free)
