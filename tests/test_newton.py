import dataclasses

import numpy as np
import pytest

from obstaclecontrol import assembly, linalg, newton, obstacle
from obstaclecontrol.assembly import build_matrices, interpolate, vector_norm
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.linalg import (
    BlockFactorizationError, CgNoConvergenceError, NotPositiveDefiniteError, solve_block_newton,
)
from obstaclecontrol.newton import (
    DivergenceError,
    NewtonConfig,
    newton_step_matrix_apply,
    run,
    solve_newton_system,
    solve_newton_system_cg,
    two_grid_preconditioner,
)
from obstaclecontrol.obstacle import classify_nodes
from obstaclecontrol.operators import DerivativeSelector, apply_P

from conftest import mesh_and_mats, reference_matrices

PAPER_Y_D = lambda x1, x2: -x1 - x2
PAPER_PSI = lambda x1, x2: np.full_like(x1, -5.0)


def all_constrained(mats):
    return DerivativeSelector.from_node_set(np.arange(mats.interior.size), mats)


def unconstrained(mats):
    return DerivativeSelector.from_node_set(np.array([], dtype=int), mats)


def test_apply_identity_when_fully_constrained(rng):
    mesh, mats = mesh_and_mats(4)
    y = rng.standard_normal(mesh.num_nodes)
    out = newton_step_matrix_apply(y, all_constrained(mats), 1e-5, mats)
    assert np.array_equal(out, y)


def test_apply_constant_against_dense_composition():
    mesh, mats = mesh_and_mats(4)
    alpha = 1e-2
    sel = unconstrained(mats)
    c = 3.0
    y = np.full(mesh.num_nodes, c)
    out = newton_step_matrix_apply(y, sel, alpha, mats)
    # dense composition of the three solves
    import numpy.linalg as la

    a_dense = mats.A.toarray()
    m_dense = mats.M.toarray()
    p = la.solve(a_dense, m_dense)
    k_int = mats.K_int.toarray()
    ext = np.zeros((mesh.num_nodes, mats.interior.size))
    ext[mats.interior, np.arange(mats.interior.size)] = 1.0
    dense_op = (
        np.eye(mesh.num_nodes)
        + (p @ ext @ la.solve(k_int, m_dense[mats.interior] @ p)) / alpha
    )
    assert np.allclose(out, dense_op @ y, atol=1e-9)


def test_apply_linearity(rng):
    mesh, mats = mesh_and_mats(8)
    sel = DerivativeSelector.from_node_set(np.arange(0, 20), mats)
    y1 = rng.standard_normal(mesh.num_nodes)
    y2 = rng.standard_normal(mesh.num_nodes)
    lhs = newton_step_matrix_apply(y1 + y2, sel, 1e-3, mats)
    rhs = newton_step_matrix_apply(y1, sel, 1e-3, mats) + newton_step_matrix_apply(
        y2, sel, 1e-3, mats
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1.0 + np.max(np.abs(lhs)))


def test_solve_fully_constrained_returns_rhs(rng):
    mesh, mats = mesh_and_mats(4)
    rhs = rng.standard_normal(mesh.num_nodes)
    assert np.array_equal(solve_newton_system(rhs, all_constrained(mats), 1e-5, mats)[0], rhs)


def test_solve_matches_dense_probe(rng):
    mesh, mats = mesh_and_mats(4)
    alpha = 1e-3
    sel = unconstrained(mats)
    nw = mesh.num_nodes
    dense = np.empty((nw, nw))
    for k in range(nw):
        e = np.zeros(nw)
        e[k] = 1.0
        dense[:, k] = newton_step_matrix_apply(e, sel, alpha, mats)
    rhs = rng.standard_normal(nw)
    y, *_ = solve_newton_system(rhs, sel, alpha, mats)
    expected = np.linalg.solve(dense, rhs)
    assert np.linalg.norm(y - expected) <= 1e-8 * np.linalg.norm(expected)


def test_solve_residual_in_m_norm(rng):
    mesh, mats = mesh_and_mats(8)
    alpha = 1e-5
    m = mats.interior.size
    sel = DerivativeSelector.from_node_set(np.flatnonzero(rng.random(m) < 0.3), mats)
    rhs = rng.standard_normal(mesh.num_nodes)
    y, *_ = solve_newton_system(rhs, sel, alpha, mats)
    resid = newton_step_matrix_apply(y, sel, alpha, mats) - rhs
    rel = vector_norm(resid, "L2", mats.K, mats.M) / vector_norm(rhs, "L2", mats.K, mats.M)
    assert rel <= 5e-10


def test_contraction_bound(rng):
    mesh, mats = mesh_and_mats(8)
    m = mats.interior.size
    for _ in range(20):
        sel = DerivativeSelector.from_node_set(
            np.flatnonzero(rng.random(m) < rng.uniform(0, 1)), mats
        )
        rhs = rng.uniform(-10, 10, mesh.num_nodes)
        y, *_ = solve_newton_system(rhs, sel, 1e-5, mats)
        assert vector_norm(y, "L2", mats.K, mats.M) <= (1 + 1e-9) * vector_norm(
            rhs, "L2", mats.K, mats.M
        )


def test_cg_cross_check(rng):
    for n in (8, 16):
        mesh, mats = mesh_and_mats(n)
        m = mats.interior.size
        sel = DerivativeSelector.from_node_set(np.flatnonzero(rng.random(m) < 0.4), mats)
        rhs = rng.standard_normal(mesh.num_nodes)
        direct, *_ = solve_newton_system(rhs, sel, 1e-5, mats)
        iterative, _ = solve_newton_system_cg(rhs, sel, 1e-5, mats)
        diff = vector_norm(direct - iterative, "L2", mats.K, mats.M)
        assert diff <= 5e-9 * vector_norm(direct, "L2", mats.K, mats.M)


def _random_selector(mats, rng):
    m = mats.interior.size
    return DerivativeSelector.from_node_set(np.flatnonzero(rng.random(m) < rng.uniform(0.1, 0.9)), mats)


# n = 64 at alpha = 1e-5 preconditions from n = 16, two levels down; at
# 1.3e-9, the smallest alpha with alpha 16^4 >= NEWTON_PCG_ALPHA_N4, the
# coarse Schur complement is at its worst conditioned
@pytest.mark.parametrize("n, alpha", [(32, 1e-5), (32, 1e-8), (64, 1e-5), (32, 1.3e-9)])
def test_two_grid_preconditioner_is_m_self_adjoint_and_positive(n, alpha, rng):
    mesh, mats = mesh_and_mats(n)

    def inner(x, z):
        return float(x @ (mats.M @ z))

    for _ in range(3):
        apply_b = two_grid_preconditioner(
            _random_selector(mats, rng), alpha, mats, mats.newton_coarse(alpha)
        )
        r, s = rng.standard_normal((2, mesh.num_nodes))
        br, bs = apply_b(r, mats.M @ r), apply_b(s, mats.M @ s)
        assert abs(inner(br, s) - inner(r, bs)) <= 1e-12 * abs(inner(br, s))
        assert inner(br, r) > 0.0 and inner(bs, s) > 0.0


def test_pcg_work_per_iteration_and_per_coarse_correction(rng, monkeypatch):
    # a PCG iteration applies the Newton operator once: two solves of the
    # fine K + M (P twice) and one of the fine K_ff (G).  A coarse
    # correction, one per iteration and one at the start, applies the
    # coarse Schur factor once: two solves of the coarse K + M and two
    # triangular solves.  The fine step's Schur solve adds its refinement:
    # four of each
    mesh, mats = mesh_and_mats(32)
    coarse = mats.newton_coarse(1e-5).level
    coarse.schur_parts  # built once per level, by one solve of K + M
    sel = _random_selector(mats, rng)
    fine_free = mats.free_factorization(sel.free)
    calls, triangular = [], []
    solve, dtrsv = linalg.Factorization.solve, linalg.blas.dtrsv
    monkeypatch.setattr(linalg.Factorization, "solve",
                        lambda self, b: calls.append(self) or solve(self, b))
    monkeypatch.setattr(linalg.blas, "dtrsv",
                        lambda *args, **kwargs: triangular.append(1) or dtrsv(*args, **kwargs))
    _, iterations, n_c = solve_newton_system(rng.standard_normal(mesh.num_nodes), sel, 1e-5, mats)
    assert n_c == 16 and iterations >= 1
    assert calls.count(mats.a_factorization) == 2 * iterations
    assert calls.count(fine_free) == iterations
    assert calls.count(coarse.a_factorization) == 2 * (iterations + 1)
    assert len(calls) == 5 * iterations + 2
    assert len(triangular) == 2 * (iterations + 1)

    calls.clear()
    triangular.clear()
    rhs = rng.standard_normal(coarse.mesh.num_nodes)
    solve_block_newton(coarse.newton_block(1e-5), _random_selector(coarse, rng).free, rhs)
    assert calls == [coarse.a_factorization] * 4 and len(triangular) == 4


def test_coarse_block_failure_names_its_level(monkeypatch):
    # a kernel test only: an alpha small enough to break the coarse Schur
    # factor lies below ALPHA_MIN, which NewtonConfig and newton_block
    # refuse; so the coarse level hands out a block at 1e-320, at which the
    # C / alpha of the Schur complement overflows
    _, mats = mesh_and_mats(32)
    link = mats.newton_coarse(1e-5)
    block = link.level.newton_block(1e-5)._replace(alpha=1e-320)
    monkeypatch.setattr(link.level, "newton_block", lambda alpha: block)
    message = (
        r"^coarse level n=16: Newton block system with \|free\| = 225: "
        r"Schur complement is not finite$"
    )
    with pytest.raises(BlockFactorizationError, match=message):
        two_grid_preconditioner(unconstrained(mats), 1e-5, mats, link)


def test_all_constrained_step_is_rhs_without_a_factorization(rng, monkeypatch):
    # b_c = 0 makes the preconditioner the identity, so PCG takes one step
    # of length exactly 1 from 0 to rhs
    mats = build_matrices(build_friedrichs_keller(32))
    mats.a_factorization  # P's factor belongs to the mesh, not to the step
    calls = []
    monkeypatch.setattr(linalg.spla, "splu", lambda *args, **kwargs: calls.append(1))
    rhs = rng.standard_normal(mats.mesh.num_nodes)
    y, iterations, _ = solve_newton_system(rhs, all_constrained(mats), 1e-5, mats)
    assert np.array_equal(y, rhs) and iterations == 1
    assert calls == []


def test_cg_errors_name_the_set_sizes(rng, monkeypatch):
    mesh, mats = mesh_and_mats(8)
    sel = _random_selector(mats, rng)
    rhs = rng.standard_normal(mesh.num_nodes)
    sizes = rf"^Newton CG with \|free\| = {sel.free.size}, \|constrained\| = {sel.constrained.size}: "
    with pytest.raises(CgNoConvergenceError, match=sizes + "residual .* after 1 iterations$"):
        solve_newton_system_cg(rhs, sel, 1e-5, mats, max_iter=1)
    monkeypatch.setattr(newton, "newton_step_matrix_apply", lambda v, *args: -v)
    with pytest.raises(NotPositiveDefiniteError, match=sizes + "CG iteration 0: nonpositive"):
        solve_newton_system_cg(rhs, sel, 1e-5, mats)


def test_paper_run_n16():
    mesh, mats = mesh_and_mats(16)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    report = run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert report.status == "converged"
    assert abs(report.iterations - 6) <= 1
    assert report.residuals[-1] <= 1e-7
    assert len(report.history) == report.iterations + 1
    # no coarse level: the block LU alone solves every step
    assert all((rec.pcg_iterations, rec.coarse_n) == (0, None) for rec in report.history)


def test_unconstrained_problem_converges_fast():
    mesh, mats = mesh_and_mats(8)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    report = run(config, PAPER_Y_D, lambda x1, x2: np.full_like(x1, -1e9), mesh, mats)
    assert report.status == "converged"
    assert report.iterations <= 2
    # the constraint never bites, so the final control solves the linear system
    assert report.final_solution.strictly_active.size == 0
    assert report.final_solution.biactive.size == 0


def test_infinite_tol_stops_at_iteration_zero():
    mesh, mats = mesh_and_mats(8)
    config = NewtonConfig(alpha=1e-5, tol=np.inf)
    report = run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert report.status == "converged"
    assert report.iterations == 0
    assert len(report.history) == 1


def test_max_iter_reached_is_reported_not_raised():
    mesh, mats = mesh_and_mats(8)
    config = NewtonConfig(alpha=1e-5, tol=0.0, max_iter=2)
    report = run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert report.status == "max_iter_reached"
    assert len(report.history) == 3


def test_fixed_point_consistency():
    mesh, mats = mesh_and_mats(16)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    report = run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)
    rerun = NewtonConfig(alpha=1e-5, tol=1e-7, y0=report.y)
    second = run(rerun, PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert second.status == "converged"
    assert second.iterations == 0


@pytest.mark.parametrize("n", [16, 32])
def test_zero_initial_guess_reaches_same_solution(n):
    mesh, mats = mesh_and_mats(n)
    default = run(NewtonConfig(alpha=1e-5, tol=1e-7), PAPER_Y_D, PAPER_PSI, mesh, mats)
    zero = run(
        NewtonConfig(alpha=1e-5, tol=1e-7, y0=np.zeros(mesh.num_nodes)),
        PAPER_Y_D, PAPER_PSI, mesh, mats,
    )
    assert zero.status == "converged"
    assert np.array_equal(zero.history[0].y, np.zeros(mesh.num_nodes))
    assert vector_norm(zero.y - default.y, "L2", mats.K, mats.M) <= 1e-9


def test_initial_guess_must_match_the_mesh():
    mesh, mats = mesh_and_mats(8)
    config = NewtonConfig(alpha=1e-5, y0=np.zeros(mesh.num_nodes - 1))
    with pytest.raises(ValueError):
        run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)


def test_mesh_of_another_level_is_refused():
    mesh, _ = mesh_and_mats(8)
    _, mats = mesh_and_mats(16)
    with pytest.raises(ValueError, match=r"^mesh has n=8, but mats are of a level with n=16$"):
        run(NewtonConfig(alpha=1e-5), PAPER_Y_D, PAPER_PSI, mesh, mats)


@pytest.mark.parametrize("n, constrained", [
    (16, [0, 24, 57, 73, 81, 83, 83]),
    (32, [0, 75, 182, 258, 282, 284, 284]),
])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e100])
def test_scaled_paper_problem_takes_the_same_steps(n, constrained, scale):
    # y_D and psi scaled by s scale y, u and lambda by s, and the active-set
    # thresholds of classify_nodes are relative, so each step constrains the
    # same nodes; at s = 1e-150 an absolute multiplier threshold constrains none
    mesh, mats = mesh_and_mats(n)
    config = NewtonConfig(alpha=1e-5, tol=1e-7 * scale)
    report = run(
        config, lambda x1, x2: scale * PAPER_Y_D(x1, x2), lambda x1, x2: scale * PAPER_PSI(x1, x2),
        mesh, mats,
    )
    assert (report.status, report.iterations) == ("converged", 6)
    assert [rec.n_constrained for rec in report.history] == constrained


def test_report_zeta_is_the_adjoint_field_of_the_last_iterate():
    mesh, mats = mesh_and_mats(8)
    report = run(NewtonConfig(alpha=1e-5, tol=1e-7), PAPER_Y_D, PAPER_PSI, mesh, mats)
    y_d = interpolate(PAPER_Y_D, mesh).values
    expected = (apply_P(y_d, mats) - apply_P(report.y, mats)) / 1e-5
    assert np.array_equal(report.zeta, expected)


def test_superlinear_tail_n16():
    mesh, mats = mesh_and_mats(16)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    report = run(config, PAPER_Y_D, PAPER_PSI, mesh, mats)
    r = report.residuals
    assert r[-1] / r[-2] <= 0.05
    assert r[-1] / r[-2] < r[-2] / r[-3]


def test_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(alpha=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(alpha=1.0, tol=-1.0)
    with pytest.raises(ValueError):
        NewtonConfig(alpha=1.0, max_iter=0)


def test_newton_runs_reach_no_biactive_node(monkeypatch):
    # N is the strictly active set.  The derivative of the obstacle map is
    # set-valued only on the biactive set, so a biactive node in an obstacle
    # solve of a Newton run would make the choice of N ambiguous: none occurs
    # over these targets, obstacles down to -1e-3 and alpha down to 1e-7
    biactive = []

    def spy(w_int, lam, psi_int):
        parts = classify_nodes(w_int, lam, psi_int)
        biactive.append(parts[2].size)
        return parts

    monkeypatch.setattr(obstacle, "classify_nodes", spy)
    targets = [PAPER_Y_D, lambda x1, x2: 10 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)]
    steps = 0
    for n in (16, 32):
        mesh, mats = mesh_and_mats(n)
        for y_d in targets:
            for c in (-5.0, -0.5, -1e-3):
                for alpha in (1e-3, 1e-5, 1e-7):
                    report = run(NewtonConfig(alpha=alpha, tol=1e-7), y_d,
                                 lambda x1, x2: np.full_like(x1, c), mesh, mats)
                    assert report.status == "converged", (n, c, alpha)
                    steps += len(report.history)
    # one obstacle solve per residual check, each classified once
    assert len(biactive) == steps
    assert sum(biactive) == 0


@pytest.mark.parametrize("max_iter", [2.5, "50", None, True])
def test_config_rejects_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError):
        NewtonConfig(alpha=1.0, max_iter=max_iter)


@pytest.mark.parametrize("field", ["alpha", "tol"])
def test_config_rejects_boolean_alpha_and_tol(field):
    with pytest.raises(ValueError):
        NewtonConfig(**{"alpha": 1.0, field: True})


@pytest.mark.parametrize("alpha, max_steps", [(1e-8, 20), (1e-10, 40)])
def test_small_alpha_converges_at_n32(alpha, max_steps):
    # each step solves for its correction, so the solver's error is not
    # amplified by 1/alpha into the adjoint field
    mesh, mats = mesh_and_mats(32)
    report = run(NewtonConfig(alpha=alpha, tol=1e-7), PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert report.status == "converged"
    assert report.iterations <= max_steps


def _paper_run(n, alpha=1e-5, hierarchy=True):
    """The paper run; without hierarchy, the obstacle solves see a copy of
    the matrices without coarse levels, so every warm start reuses the
    previous active set, while the Newton solves keep theirs."""
    mesh = build_friedrichs_keller(n)
    mats = build_matrices(mesh)
    with pytest.MonkeyPatch.context() as mp:
        if not hierarchy:
            flat = dataclasses.replace(mats)
            flat.__dict__["coarse"] = None
            solve = newton.solve_obstacle
            mp.setattr(newton, "solve_obstacle",
                       lambda z, psi, mats, **kw: solve(z, psi, flat, **kw))
        return run(NewtonConfig(alpha=alpha, tol=1e-7), PAPER_Y_D, PAPER_PSI, mesh, mats)


@pytest.mark.parametrize("n, alpha", [(32, 1e-5), (64, 1e-5), (32, 1e-8)])
def test_coarse_warm_start_leaves_iterates_bit_identical(n, alpha):
    # the final PDAS iterate is the solve on the final active set, so the
    # start that led to that set does not show in the answer
    with_levels = _paper_run(n, alpha)
    without = _paper_run(n, alpha, hierarchy=False)
    assert len(with_levels.history) == len(without.history)
    for a, b in zip(with_levels.history, without.history):
        for field in ("y", "ytilde", "u"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.residual == b.residual
        assert b.coarse_pdas_iterations == ()


def test_pdas_iterations_per_step_stay_small_at_n64():
    report = _paper_run(64)
    fine = [rec.pdas_iterations for rec in report.history]
    assert max(fine) <= 5 and sum(fine) <= 25  # without the hierarchy: 1/16/12/8/5/2/1
    # step 0 starts cold; every warm step solves n=32 and n=16 too
    levels = [len(rec.coarse_pdas_iterations) for rec in report.history]
    assert levels == [0] + [2] * (len(levels) - 1)
    assert all(1 <= it <= 5 for rec in report.history for it in rec.coarse_pdas_iterations)


def test_pcg_iterations_per_step_stay_small_at_n64():
    # alpha n_c^6 = 168 at n_c = 16, so the preconditioner skips the level 32
    report = _paper_run(64)
    steps = report.history[:-1]
    assert all(1 <= rec.pcg_iterations <= 7 and rec.coarse_n == 16 for rec in steps)
    last = report.history[-1]
    assert (last.pcg_iterations, last.coarse_n) == (0, None)  # no step from it


def test_paper_run_n96_preconditions_from_the_level_24():
    # levels 96, 48 and 24: alpha 24^6 >= 100, and 24 has no coarse level
    report = _paper_run(96)
    assert report.status == "converged" and report.iterations == 6
    steps = report.history[:-1]
    assert all(rec.pcg_iterations >= 1 and rec.coarse_n == 24 for rec in steps)


def test_block_lu_side_of_the_cut_runs_no_pcg(monkeypatch):
    # at n = 32, alpha = 1e-10 the level 16 has alpha n_c^4 = 6.6e-6, below
    # NEWTON_PCG_ALPHA_N4, so the block LU solves every step with no PCG work
    def no_pcg(*args):
        raise AssertionError("a two-grid preconditioner was built")

    monkeypatch.setattr(newton, "two_grid_preconditioner", no_pcg)
    mesh, mats = mesh_and_mats(32)
    report = run(NewtonConfig(alpha=1e-10, tol=1e-7, max_iter=2), PAPER_Y_D, PAPER_PSI, mesh, mats)
    records = [(rec.pcg_iterations, rec.coarse_n) for rec in report.history]
    assert records == [(0, None)] * 3


def test_divergence_is_a_named_stop():
    # y_D = 1e160 is finite, but the M-norm of the first residual
    # y_0 - ytilde_0 = I_h y_D - P u_0 overflows when squared
    mesh, mats = mesh_and_mats(8)
    message = r"^outer iteration 0: residual inf is not finite; the iterates diverged$"
    with pytest.raises(DivergenceError, match=message):
        run(NewtonConfig(alpha=1e-5, tol=1e-7), lambda x1, x2: 1e160, PAPER_PSI, mesh, mats)


@pytest.mark.parametrize("n", [8, 16, 24, 32, 64])
def test_block_steps_keep_the_unit_bound_from_the_alpha_floor_up(n, rng):
    # the inverse Newton operator has unit M-norm bound; below ALPHA_MIN
    # the unpivoted SuperLU block LU returns steps that break it.  From the
    # floor up to 1e-6 every step keeps it on either kernel, on the
    # converged paper selector with the first paper step's right-hand side
    # and on two random selectors
    mesh, mats = mesh_and_mats(n)
    report = run(NewtonConfig(alpha=1e-5, tol=1e-7), PAPER_Y_D, PAPER_PSI, mesh, mats)
    assert report.status == "converged"
    first = report.history[0]
    rhs = first.ytilde - first.y
    selectors = [DerivativeSelector.from_solution(report.final_solution, mats)]
    selectors += [_random_selector(mats, rng) for _ in range(2)]
    rhs_norm = vector_norm(rhs, "L2", mats.K, mats.M)
    for alpha in assembly.ALPHA_MIN * 10.0 ** np.arange(15):
        block = mats.newton_block(alpha)
        for selector in selectors:
            y = solve_block_newton(block, selector.free, rhs)
            assert vector_norm(y, "L2", mats.K, mats.M) <= (1.0 + 1e-9) * rhs_norm


@pytest.mark.parametrize("n", [16, 32, 64])
def test_paper_histories_keep_their_bits_on_the_triangle_assembly(n, monkeypatch):
    # the stencil's K and M are the triangle sum's bytes at powers of two,
    # so a run on the triangle sum at every level repeats each iterate
    mesh = build_friedrichs_keller(n)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    stencil = run(config, PAPER_Y_D, PAPER_PSI, mesh, build_matrices(mesh))
    monkeypatch.setattr(assembly, "build_matrices", reference_matrices)  # the coarse levels
    triangles = run(config, PAPER_Y_D, PAPER_PSI, mesh, reference_matrices(mesh))
    assert len(stencil.history) == len(triangles.history)
    for a, b in zip(stencil.history, triangles.history):
        for field in ("y", "ytilde", "u"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.residual == b.residual


# the PCG iterations of each step, the last record taking none; n = 32
# preconditions from n_c = 16 (at 2e-9, alpha 16^4 = 1.3e-4 lies near the
# cut NEWTON_PCG_ALPHA_N4 = 8e-5), paper n = 48 from n_c = 24 and n = 64
# at 1e-7 from n_c = 32
@pytest.mark.parametrize("n, alpha, history, n_c", [
    (32, 1e-6, [7, 7, 7, 7, 7, 7, 6, 7, 0], 16),
    (32, 1e-7, [9, 9, 9, 10, 9, 9, 9, 9, 9, 8, 8, 9, 0], 16),
    (32, 1e-8, [13, 12, 15, 14, 13, 14, 14, 13, 13, 14, 14, 12, 13, 13, 13, 13, 14, 14, 0], 16),
    (32, 2e-9, [18, 20, 20, 18, 19, 19, 18, 19, 19, 20, 18, 19, 18, 17, 17, 17, 17, 18, 17,
                16, 17, 16, 0], 16),
    (48, 1e-5, [5] * 6 + [0], 24),
    (64, 1e-7, [6] + [7] * 11 + [0], 32),
])
def test_pcg_iterations_of_each_step(n, alpha, history, n_c):
    report = _paper_run(n, alpha)
    assert report.status == "converged"
    assert [rec.pcg_iterations for rec in report.history] == history
    assert [rec.coarse_n for rec in report.history] == [n_c] * (len(history) - 1) + [None]
