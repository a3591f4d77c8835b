import numpy as np
import pytest
import scipy.sparse as sp

from obstaclecontrol import assembly, linalg, newton
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
    assert_same_band,
    assert_same_csc,
    mesh_and_mats,
    reference_block_matrix,
    reference_block_newton,
    reference_free_submatrix,
    reference_level_cut,
    reference_nd_cut,
    reference_upper_band,
    singular_splu,
    solve,
)


def test_identity_roundtrip():
    f = Factorization(sp.identity(7, format="csc"), np.arange(7))
    b = np.arange(7.0)
    assert np.allclose(solve(f, b), b)


def test_two_by_two_hand_solve():
    a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    f = Factorization(a, np.arange(a.shape[0]))
    assert np.allclose(f.solve(np.array([3.0, 3.0])), [1.0, 1.0])


def test_helmholtz_constants():
    mesh, mats = mesh_and_mats(4)
    f = Factorization(mats.A, np.arange(mesh.num_nodes))
    b = mats.M @ np.ones(mesh.num_nodes)
    x = f.solve(b)
    assert np.max(np.abs(x - 1.0)) < 1e-10


def test_residual_bound(rng):
    mesh, mats = mesh_and_mats(8)
    f = Factorization(mats.A, np.arange(mesh.num_nodes))
    for _ in range(5):
        b = rng.standard_normal(mesh.num_nodes)
        x = f.solve(b)
        assert np.linalg.norm(mats.A @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1.0)


def test_deterministic_roundtrip(rng):
    mesh, mats = mesh_and_mats(4)
    b = rng.standard_normal(mesh.num_nodes)
    x1 = Factorization(mats.A, np.arange(mesh.num_nodes)).solve(b)
    x2 = Factorization(mats.A, np.arange(mesh.num_nodes)).solve(b)
    assert np.array_equal(x1, x2)


def test_rejects_indefinite():
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(NotPositiveDefiniteError):
        Factorization(a, np.arange(a.shape[0]))


def test_rejects_indefinite_with_a_zero_pivot():
    # a zero pivot makes SuperLU exchange rows, after which every pivot is positive
    a = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues 1, -1
    message = r"^2 x 2 matrix: row exchange at an exactly zero pivot$"
    with pytest.raises(NotPositiveDefiniteError, match=message):
        Factorization(a, np.arange(a.shape[0]))


def test_dimension_mismatch():
    f = Factorization(sp.identity(3, format="csc"), np.arange(3))
    with pytest.raises(ValueError):
        f.solve(np.zeros(4))


def test_empty_factorization():
    f = Factorization(sp.csc_matrix((0, 0)), np.arange(0))
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
    y = solve_block_newton(mats.newton_block(1e-5), np.array([], dtype=int), rhs)
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
    y = solve_block_newton(mats.newton_block(alpha), sel.free, rhs)
    assert np.linalg.norm(y - expected) <= 1e-8 * np.linalg.norm(expected)


def test_block_solve_zero_pivot_names_the_free_set(rng, monkeypatch):
    # SuperLU's error at an exactly zero pivot is named with the free set;
    # n = 24 is above SCHUR_MAX_N, so SuperLU factors its block system
    monkeypatch.setattr(linalg, "_splu", singular_splu)
    mesh, mats = mesh_and_mats(24)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    message = rf"^Newton block system with \|free\| = {sel.free.size}: Factor is exactly singular$"
    with pytest.raises(BlockFactorizationError, match=message):
        solve_block_newton(mats.newton_block(1e-5), sel.free, rhs)


@pytest.mark.parametrize("n", [8, 32])
def test_newton_block_refuses_alpha_below_the_floor(n, monkeypatch):
    # one floor for the dense Schur (n = 8) and the SuperLU (n = 32) kernel,
    # checked before a block system is built
    def no_splu(*args, **kwargs):
        raise AssertionError("SuperLU factored a block system below the floor")

    monkeypatch.setattr(linalg.spla, "splu", no_splu)
    _, mats = mesh_and_mats(n)
    for alpha in (assembly.ALPHA_MIN / 2, np.nan):
        with pytest.raises(ValueError, match=r"^alpha must be at least ALPHA_MIN = 1e-20, got "):
            mats.newton_block(alpha)
    assert mats.newton_block(assembly.ALPHA_MIN).alpha == assembly.ALPHA_MIN


def test_block_solve_large_alpha_limit(rng):
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    y = solve_block_newton(mats.newton_block(1e12), sel.free, rhs)
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
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    mesh, mats = mesh_and_mats(n)
    m = mats.interior.size
    free = {
        "empty": np.array([], dtype=int),
        "full": np.arange(m),
        "random": np.flatnonzero(rng.random(m) < rng.uniform(0.2, 0.8)),
    }[free_set]
    rhs = rng.standard_normal(mesh.num_nodes)
    captured = _capture_splu(monkeypatch)
    y = solve_block_newton(mats.newton_block(alpha), free, rhs)
    assert len(captured) == (1 if free.size else 0)
    if free.size:
        assert_same_csc(captured[0], reference_block_matrix(mats, free, alpha)[0])
    assert np.array_equal(y, reference_block_newton(mats, free, alpha, rhs))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("alpha", [1e-3, 1e-5, 1e-8, 1e-10, 1e12])
@pytest.mark.parametrize("free_set", ["empty", "full", "random"])
def test_schur_solve_matches_the_reference_block_solve(n, alpha, free_set, rng, monkeypatch):
    # a level with n <= SCHUR_MAX_N solves the block system through its
    # dense Schur complement, without SuperLU, to the accuracy of the sparse
    # block LU, also at alpha = 1e-10, where S is worst conditioned
    mesh, mats = mesh_and_mats(n)
    m = mats.interior.size
    free = {
        "empty": np.array([], dtype=int),
        "full": np.arange(m),
        "random": np.flatnonzero(rng.random(m) < rng.uniform(0.2, 0.8)),
    }[free_set]
    rhs = rng.standard_normal(mesh.num_nodes)
    captured = _capture_splu(monkeypatch)
    block = mats.newton_block(alpha)
    assert isinstance(block, linalg.SchurBlock) and block.alpha == alpha
    y = solve_block_newton(block, free, rhs)
    assert captured == []
    expected = reference_block_newton(mats, free, alpha, rhs)
    assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, superlu", [(8, False), (16, False), (24, True), (32, True)])
def test_block_step_factors_by_superlu_only_above_schur_max_n(n, superlu, rng, monkeypatch):
    # the kernel of the fine block step is chosen by n alone
    mats = build_matrices(build_friedrichs_keller(n))
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mats.mesh.num_nodes)
    captured = _capture_splu(monkeypatch)
    y = solve_block_newton(mats.newton_block(1e-10), sel.free, rhs)
    assert len(captured) == (1 if superlu else 0)
    assert isinstance(mats.newton_block(1e-10), linalg.BlockPattern) == superlu
    assert np.linalg.norm(y - reference_block_newton(mats, sel.free, 1e-10, rhs)) <= (
        1e-12 * np.linalg.norm(y)
    )


def test_coarse_schur_solve_makes_no_superlu_call(rng, monkeypatch):
    # the n = 16 level of the n = 32 preconditioner solves through S
    mats = build_matrices(build_friedrichs_keller(32))
    link = mats.newton_coarse(1e-5)
    assert link.level.mesh.n == 16
    captured = _capture_splu(monkeypatch)
    apply_b = newton.two_grid_preconditioner(_random_selector(mats, rng), 1e-5, mats, link)
    assert np.all(np.isfinite(apply_b(rng.standard_normal(mats.mesh.num_nodes))))
    assert captured == []


def test_schur_overflow_is_a_named_failure(rng):
    # C / alpha overflows to inf at a subnormal alpha; newton_block refuses
    # any alpha below ALPHA_MIN, so only a block built here reaches it
    _, mats = mesh_and_mats(8)
    free = _random_selector(mats, rng).free
    block = mats.newton_block(1e-5)._replace(alpha=1e-320)
    message = rf"^Newton block system with \|free\| = {free.size}: Schur complement is not finite$"
    with pytest.raises(BlockFactorizationError, match=message):
        linalg.block_solver(block, free)


def test_schur_nan_is_a_named_failure():
    _, mats = mesh_and_mats(8)
    free = np.arange(mats.interior.size)
    coupling = mats.schur_parts[1].copy()
    coupling[3, 5] = np.nan
    message = r"^Newton block system with \|free\| = 49: Schur complement is not finite$"
    with pytest.raises(BlockFactorizationError, match=message):
        linalg.block_solver(mats.newton_block(1e-5)._replace(coupling=coupling), free)


def test_schur_indefinite_is_a_named_failure(rng):
    # with K_int negated, S = -K_ff + C / alpha has a negative first pivot at large alpha
    _, mats = mesh_and_mats(8)
    free = _random_selector(mats, rng).free
    message = (
        rf"^Newton block system with \|free\| = {free.size}: Schur complement is not "
        r"positive definite: leading minor of order 1$"
    )
    with pytest.raises(BlockFactorizationError, match=message):
        linalg.block_solver(mats.newton_block(1e12)._replace(kint=-mats.schur_parts[0]), free)


@pytest.mark.parametrize("banded", [True, False], ids=["band", "superlu"])
def test_two_dimensional_solve_is_the_solve_of_each_column(banded, rng):
    _, mats = mesh_and_mats(8)
    if banded:
        fact = Factorization(mats.A)
    else:
        ordered = linalg.reorder(mats.A, mats.mesh.nested_dissection)
        fact = Factorization(ordered.matrix, ordered.order)
    rhs = rng.standard_normal((mats.mesh.num_nodes, 5))
    x = fact.solve(rhs)
    assert x.shape == rhs.shape
    for k in range(rhs.shape[1]):
        column = fact.solve(rhs[:, k])
        assert np.linalg.norm(x[:, k] - column) <= 1e-15 * np.linalg.norm(column)
    with pytest.raises(ValueError):
        fact.solve(rhs[:, :, None])


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_free_factorization_factors_the_reference_submatrix(n, rng, monkeypatch):
    # K_int[free, free] in nested-dissection order, explicit zeros of K_int
    # kept, and every solve is that of a fresh factorization of the cut
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)
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
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)
    mats = build_matrices(build_friedrichs_keller(n))
    captured = _capture_splu(monkeypatch)
    cases = [
        (lambda: mats.free_factorization(np.arange(mats.interior.size)), mats.K, mats.interior),
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
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
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


def _reorder_cases(mats):
    # the block system is assembled with its explicit zeros, as newton_block does
    interior = mats.interior
    m = mats.M
    block = sp.bmat([[mats.A, None, m * 1e5], [-m[interior], mats.K_int, None],
                     [None, -m[:, interior], mats.A]], format="csc")
    return [mats.A, mats.K_int, block]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["K+M", "K_int", "newton_block"])
def test_reorder_is_the_fancy_indexed_permutation(case, rng):
    # the oracle cuts in CSR form, with no COO conversion
    mats = build_matrices(build_friedrichs_keller(8))
    a = _reorder_cases(mats)[case]
    order = rng.permutation(a.shape[0])
    ordered = linalg.reorder(a, order)
    assert_same_csc(ordered.matrix, a.tocsr()[np.ix_(order, order)].tocsc())
    assert np.array_equal(ordered.rank[order], np.arange(order.size))
    assert np.count_nonzero(ordered.matrix.data == 0.0) == np.count_nonzero(a.data == 0.0)


@pytest.mark.parametrize("n", [8, 16])
def test_block_solve_matches_cg_at_tiny_alpha(n, rng):
    # at alpha = 1e-10 the block system is badly scaled; factoring it in
    # node-interleaved order without pivoting must keep full accuracy
    mesh, mats = mesh_and_mats(n)
    alpha = 1e-10
    for _ in range(3):
        sel = _random_selector(mats, rng, fraction=rng.uniform(0.1, 0.7))
        rhs = rng.standard_normal(mesh.num_nodes)
        direct = solve_block_newton(mats.newton_block(alpha), sel.free, rhs)
        iterative, _ = solve_newton_system_cg(rhs, sel, alpha, mats, tol=1e-14)
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
            1e-13, 2, lambda r: r,
        )


@pytest.mark.parametrize("sign", [-1.0, 0.0])
def test_cg_raises_on_nonpositive_curvature(sign, rng):
    mesh, mats = mesh_and_mats(4)
    rhs = rng.standard_normal(mesh.num_nodes)
    with pytest.raises(NotPositiveDefiniteError):
        cg_self_adjoint(lambda v: sign * v, rhs, _m_inner(mats), 1e-13, 10, lambda r: r)


def _random_cuts(mats, rng, count=3):
    """K_int[free, free] cut from kint_nd at random free sets."""
    nd = mats.kint_nd
    for fraction in rng.uniform(0.2, 0.9, count):
        keep = rng.random(mats.interior.size) < fraction
        if keep.any():
            yield linalg.principal_submatrix(nd.matrix, keep)


@pytest.mark.parametrize("n", [2, 3, 8, 10, 12, 16, 24, 32])
def test_solver_matrices_are_certified_and_their_pivots_agree(n, rng):
    # K + M, K_int and every K_int[free, free] are diagonally dominant at
    # every n, powers of two or not, so Factorization never reads U; the
    # pivots it would read are positive
    mats = build_matrices(build_friedrichs_keller(n))
    matrices = [mats.A, mats.kint_nd.matrix, *_random_cuts(mats, rng)]
    for a in matrices:
        assert linalg.diagonally_dominant(a)
        assert np.all(linalg._splu(a).U.diagonal() > 0.0)
        Factorization(a, np.arange(a.shape[0]))


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
        Factorization(a, np.arange(a.shape[0]))


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
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    mats = build_matrices(build_friedrichs_keller(16))
    m = mats.interior.size
    free = np.flatnonzero(rng.random(m) < 0.6)
    for fact, size in [
        (mats.a_factorization, mats.mesh.num_nodes),
        (mats.free_factorization(np.arange(m)), m),
        (mats.free_factorization(free), free.size),
    ]:
        assert isinstance(fact._lu, _FactorsNotRead)
        assert np.all(np.isfinite(fact.solve(np.ones(size))))
    # whole paper runs, coarse levels and block solves included; n = 48
    # is not a power of two, and neither is its coarse level 24
    for n in (32, 48):
        mesh = build_friedrichs_keller(n)
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
    assert np.allclose(dense @ Factorization(a, np.arange(a.shape[0])).solve(b), b)
    real_splu = linalg._splu
    monkeypatch.setattr(linalg, "_splu", lambda a: _FactorsNotRead(real_splu(a)))
    with pytest.raises(AssertionError, match="U was read"):
        Factorization(a, np.arange(a.shape[0]))


def test_newton_block_is_scaled_once_per_alpha(rng, monkeypatch):
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    mats = build_matrices(build_friedrichs_keller(8))
    built = []
    new = linalg.BlockPattern.__new__

    def recording_new(cls, *args):
        built.append(args[-1])  # alpha
        return new(cls, *args)

    monkeypatch.setattr(linalg.BlockPattern, "__new__", recording_new)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mats.mesh.num_nodes)
    every = np.arange(mats.interior.size)
    for alpha in [1e-5, 1e-5, 1e-8, 1e-8, 1e-5]:
        y, *_ = newton.solve_newton_system(rhs, sel, alpha, mats)
        block = mats.newton_block(alpha)
        reference, perm = reference_block_matrix(mats, every, alpha)
        assert_same_csc(block.matrix, reference)
        positions = np.concatenate([block.a_pos, block.w_pos, block.b_pos])
        assert np.array_equal(positions, np.argsort(perm))
        assert np.array_equal(y, reference_block_newton(mats, sel.free, alpha, rhs))
        fresh = build_matrices(mats.mesh).newton_block(alpha)
        assert built.pop() == alpha  # the fresh block, not one of mats
        assert np.array_equal(y, solve_block_newton(fresh, sel.free, rhs))
    assert built == [1e-5, 1e-8, 1e-5]


def test_only_the_unit_pattern_is_scaled(monkeypatch):
    # only the M/alpha coupling (a-rows, b-columns) depends on alpha, and it
    # is M scaled once by 1 / alpha; every other entry is the same at any alpha
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    mesh = build_friedrichs_keller(4)
    blocks = {alpha: build_matrices(mesh).newton_block(alpha) for alpha in (1e-5, 1e-8)}
    low, high = blocks[1e-5], blocks[1e-8]
    assert (low.alpha, high.alpha) == (1e-5, 1e-8)
    assert np.array_equal(low.matrix.indptr, high.matrix.indptr)
    assert np.array_equal(low.matrix.indices, high.matrix.indices)
    size = low.matrix.shape[0]
    col = np.repeat(np.arange(size), np.diff(low.matrix.indptr))  # of each entry
    assert np.array_equal(col, np.repeat(np.arange(size), np.diff(high.matrix.indptr)))
    for name in ("a_pos", "w_pos", "b_pos"):
        assert np.array_equal(getattr(low, name), getattr(high, name))
    node = np.full(size, -1)
    node[low.a_pos] = np.arange(mesh.num_nodes)
    is_a = np.zeros(size, dtype=bool)
    is_a[low.a_pos] = True
    is_b = np.zeros(size, dtype=bool)
    is_b[low.b_pos] = True
    b_node = np.full(size, -1)
    b_node[low.b_pos] = np.arange(mesh.num_nodes)
    coupling = is_a[low.matrix.indices] & is_b[col]
    mass = low.mass.toarray()
    assert np.count_nonzero(coupling) == low.mass.nnz
    for alpha, block in blocks.items():
        rows, cols = node[block.matrix.indices[coupling]], b_node[col[coupling]]
        assert np.array_equal(block.matrix.data[coupling], mass[rows, cols] * (1 / alpha))
    assert np.array_equal(low.matrix.data[~coupling], high.matrix.data[~coupling])


def _negated_kint_cut(rng):
    """A level n = 8 whose K_int is negated, and a random free set."""
    mats = build_matrices(build_friedrichs_keller(8))
    mats.K_int = -mats.K_int
    return mats, np.flatnonzero(rng.random(mats.interior.size) < 0.6)


def test_free_factorization_error_names_the_level_and_the_free_set(rng):
    # the band kernel stops at the first leading minor
    mats, free = _negated_kint_cut(rng)
    size = free.size
    message = (
        rf"^level n=8, K_int\[free, free\] with \|free\| = {size}: "
        rf"{size} x {size} matrix: leading minor of order 1 is not positive$"
    )
    with pytest.raises(NotPositiveDefiniteError, match=message):
        mats.free_factorization(free)


def test_free_factorization_error_on_a_superlu_level(rng, monkeypatch):
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)
    mats, free = _negated_kint_cut(rng)
    size = free.size
    message = (
        rf"^level n=8, K_int\[free, free\] with \|free\| = {size}: "
        rf"{size} x {size} matrix: {size} nonpositive pivot\(s\)"
    )
    with pytest.raises(NotPositiveDefiniteError, match=message):
        mats.free_factorization(free)


def _spy_kernels(monkeypatch):
    """Count the band Cholesky and SuperLU factorizations, and record the
    order of every Factorization."""
    calls = {"band": 0, "superlu": 0, "orders": []}
    real_dpbtrf, real_splu, init = linalg.lapack.dpbtrf, linalg._splu, Factorization.__init__

    def band(*args, **kwargs):
        calls["band"] += 1
        return real_dpbtrf(*args, **kwargs)

    def superlu(a):
        calls["superlu"] += 1
        return real_splu(a)

    def recording_init(self, a, order=None):
        calls["orders"].append(order)
        init(self, a, order)

    monkeypatch.setattr(linalg.lapack, "dpbtrf", band)
    monkeypatch.setattr(linalg, "_splu", superlu)
    monkeypatch.setattr(Factorization, "__init__", recording_init)
    return calls


@pytest.mark.parametrize("n", [16, 64, 128])
def test_levels_up_to_banded_max_n_factor_by_band_cholesky(n, rng, monkeypatch):
    # K + M, K_int and a free-set cut of one level all go to one kernel,
    # chosen by n alone: band Cholesky in natural order, or SuperLU in
    # nested-dissection order
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size
    calls = _spy_kernels(monkeypatch)
    facts = [
        mats.a_factorization,
        mats.free_factorization(np.arange(m)),
        mats.free_factorization(np.flatnonzero(rng.random(m) < 0.6)),
    ]
    banded = n <= assembly.BANDED_MAX_N
    assert (calls["band"], calls["superlu"]) == ((3, 0) if banded else (0, 3))
    assert all((fact._lu is None) == banded for fact in facts)
    if banded:
        assert calls["orders"] == [None] * 3
    else:
        assert np.array_equal(calls["orders"][0], mats.mesh.nested_dissection)
        assert all(order is not None for order in calls["orders"])


@pytest.mark.parametrize("n", [8, 16, 33, 64])
def test_band_and_superlu_solves_agree(n, rng):
    # the band factor of each level against a SuperLU factor of the
    # nested-dissection cut of the same matrix
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size
    sets = [np.flatnonzero(rng.random(m) < rng.uniform(0.1, 0.9)) for _ in range(20)]
    cases = [
        (mats.free_factorization(free), *reference_free_submatrix(mats, free))
        for free in [*sets, np.arange(0), np.arange(m)]
    ]
    nodes = np.arange(mats.mesh.num_nodes)
    cases.append((mats.a_factorization, *reference_nd_cut(mats.K + mats.M, mats.mesh, nodes)))
    for band, cut, order in cases:
        assert band._lu is None
        b = rng.standard_normal(cut.shape[0])
        expected = Factorization(cut, order).solve(b)
        got = band.solve(b)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_band_kernel_rejects_indefinite():
    a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    message = r"^2 x 2 matrix: leading minor of order 2 is not positive$"
    with pytest.raises(NotPositiveDefiniteError, match=message):
        Factorization(a)


def test_band_kernel_rejects_a_nan_entry():
    a = sp.csc_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
    with pytest.raises(NotPositiveDefiniteError, match=r"^2 x 2 matrix: factor is not finite$"):
        Factorization(a)


def test_band_kernel_sums_duplicate_entries():
    # column 1 stores its diagonal as 1 + 1, as SuperLU would sum it
    a = sp.csc_matrix(
        (np.array([2.0, 1.0, 1.0, 1.0, 1.0]), np.array([0, 1, 0, 1, 1]), np.array([0, 2, 5])),
        shape=(2, 2),
    )
    dense = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(dense @ Factorization(a).solve(np.array([1.0, 2.0])), [1.0, 2.0])


@pytest.mark.parametrize("n", [2, 3, 8, 16, 33, 64])
def test_band_cut_is_the_band_of_the_reference_cut(n, rng, monkeypatch):
    # every band handed to dpbtrf, byte for byte and with the same b, is that
    # of the fancy-indexed cut, explicit zeros included
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size
    handed = []
    real_dpbtrf = linalg.lapack.dpbtrf

    def recording(band, **kwargs):
        handed.append(band.copy(order="F"))  # factored in place
        return real_dpbtrf(band, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dpbtrf", recording)
    fragmented = np.flatnonzero(np.arange(m) // 3 % 2 == 0)  # runs of 3 nodes, 3 dropped
    sets = [np.arange(0), np.arange(m), fragmented]
    sets += [np.flatnonzero(rng.random(m) < p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    sets = list({free.tobytes(): free for free in sets}.values())  # each one factors
    for free in sets:
        keep = np.zeros(m, dtype=bool)
        keep[free] = True
        expected = reference_upper_band(reference_level_cut(mats.K, mats, mats.interior[free])[0])
        assert_same_band(linalg.upper_band(mats.kint_upper, keep), expected)
        handed.clear()
        mats.free_factorization(free)
        assert len(handed) == (free.size > 0)  # a 0 x 0 matrix is not factored
        if handed:
            assert_same_band(handed[0], expected)
    nodes = np.arange(mats.mesh.num_nodes)
    expected = reference_upper_band(reference_level_cut(mats.K + mats.M, mats, nodes)[0])
    entries = linalg.upper_entries(mats.A)
    assert_same_band(linalg.upper_band(entries, np.ones(nodes.size, dtype=bool)), expected)
    handed.clear()
    assert mats.a_factorization._band is not None
    assert len(handed) == 1
    assert_same_band(handed[0], expected)


@pytest.mark.parametrize("n", [16, 64])
def test_banded_free_factorization_builds_no_sparse_submatrix(n, rng, monkeypatch):
    mats = build_matrices(build_friedrichs_keller(n))
    m = mats.interior.size

    def refuse(*args, **kwargs):
        raise AssertionError("a banded level cut a sparse submatrix")

    monkeypatch.setattr(linalg, "principal_submatrix", refuse)
    monkeypatch.setattr(linalg, "reorder", refuse)
    for free in (np.arange(m), np.flatnonzero(rng.random(m) < 0.6)):
        assert mats.free_factorization(free)._band is not None
