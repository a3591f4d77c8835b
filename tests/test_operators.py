import gc
import weakref

import numpy as np
import pytest

from obstaclecontrol import assembly, linalg
from obstaclecontrol.assembly import (
    FEMatrices,
    NodalFunction,
    build_matrices,
    interpolate,
)
from obstaclecontrol.cli import PAPER_PRESET, run_single
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.newton import NewtonConfig, solve_newton_system
from obstaclecontrol.obstacle import solve_obstacle
from obstaclecontrol.operators import (
    DerivativeSelector,
    apply_G,
    apply_P,
    extend_interior,
)

from conftest import assert_same_level_cut, mesh_and_mats, reference_level_cut


def test_p_fixes_constants():
    mesh, mats = mesh_and_mats(8)
    for c in (1.0, -3.5):
        u = np.full(mesh.num_nodes, c)
        assert np.max(np.abs(apply_P(u, mats) - c)) < 1e-10


def test_p_self_adjoint_in_l2(rng):
    mesh, mats = mesh_and_mats(8)
    for _ in range(8):
        u = rng.standard_normal(mesh.num_nodes)
        v = rng.standard_normal(mesh.num_nodes)
        lhs = u @ (mats.M @ apply_P(v, mats))
        rhs = apply_P(u, mats) @ (mats.M @ v)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_p_of_desired_state_solves_helmholtz():
    mesh, mats = mesh_and_mats(8)
    y_d = interpolate(lambda x1, x2: -x1 - x2, mesh).values
    y = apply_P(y_d, mats)
    assert np.linalg.norm(mats.A @ y - mats.M @ y_d) < 1e-10


def test_g_all_constrained_vanishes(rng, monkeypatch):
    # the free set is empty, so the cut of K_int is 0 x 0 and SuperLU is not called
    mesh, mats = mesh_and_mats(4)
    calls = []
    monkeypatch.setattr(linalg.spla, "splu", lambda *args, **kwargs: calls.append(1))
    sel = DerivativeSelector.from_node_set(np.arange(mats.interior.size), mats)
    w = apply_G(sel, rng.standard_normal(mesh.num_nodes), mats)
    assert np.max(np.abs(w)) == 0.0
    assert calls == []


def test_g_unconstrained_is_dirichlet_solve(rng):
    mesh, mats = mesh_and_mats(4)
    sel = DerivativeSelector.from_node_set(np.array([], dtype=int), mats)
    a = rng.standard_normal(mesh.num_nodes)
    w = apply_G(sel, a, mats)
    load = (mats.M @ a)[mats.interior]
    assert np.linalg.norm(mats.K_int @ w - load) < 1e-10


def test_g_self_adjoint_in_l2(rng):
    mesh, mats = mesh_and_mats(8)
    m = mats.interior.size
    sel = DerivativeSelector.from_node_set(np.flatnonzero(rng.random(m) < 0.3), mats)
    for _ in range(5):
        a = rng.standard_normal(mesh.num_nodes)
        b = rng.standard_normal(mesh.num_nodes)
        ga = extend_interior(apply_G(sel, a, mats), mats)
        gb = extend_interior(apply_G(sel, b, mats), mats)
        lhs = ga @ (mats.M @ b)
        rhs = a @ (mats.M @ gb)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_g_pairing_nonnegative(rng):
    mesh, mats = mesh_and_mats(8)
    m = mats.interior.size
    for _ in range(100):
        a = rng.uniform(-10, 10, mesh.num_nodes)
        sel = DerivativeSelector.from_node_set(
            np.flatnonzero(rng.random(m) < rng.uniform(0, 1)), mats
        )
        w = apply_G(sel, a, mats)
        pairing = (mats.M @ a) @ extend_interior(w, mats)
        assert pairing >= -1e-12 * (1.0 + abs(pairing))


def test_nesting_monotonicity_of_quadratic_forms(rng):
    # enlarging the constrained set can only shrink the induced energy
    mesh, mats = mesh_and_mats(4)
    m = mats.interior.size
    small = np.array([0, 3], dtype=int)
    large = np.array([0, 3, 5, 7], dtype=int)
    sel_small = DerivativeSelector.from_node_set(small, mats)
    sel_large = DerivativeSelector.from_node_set(large, mats)

    def form(sel):
        nw = mesh.num_nodes
        q = np.empty((nw, nw))
        for k in range(nw):
            e = np.zeros(nw)
            e[k] = 1.0
            q[:, k] = mats.M @ extend_interior(apply_G(sel, e, mats), mats)
        return 0.5 * (q + q.T)

    qs, ql = form(sel_small), form(sel_large)
    assert np.linalg.eigvalsh(qs - ql).min() >= -1e-12


def test_selector_from_solution_respects_admissibility(rng):
    mesh, mats = mesh_and_mats(8)
    z = NodalFunction(rng.uniform(-80, -20, mesh.num_nodes), mesh)
    psi = NodalFunction(np.full(mesh.num_nodes, -0.05), mesh)
    sol = solve_obstacle(z, psi, mats)
    sel = DerivativeSelector.from_solution(sol, mats)
    assert np.all(np.isin(sol.strictly_active, sel.constrained))
    assert not np.any(np.isin(sol.inactive, sel.constrained))
    # N is exactly the strictly active set: no biactive node joins it
    assert np.array_equal(sel.constrained, np.sort(sol.strictly_active))


def test_selector_rejects_out_of_range(mesh4):
    mesh, mats = mesh4
    with pytest.raises(ValueError):
        DerivativeSelector.from_node_set(np.array([mats.interior.size]), mats)


def _fresh_mats(n):
    return build_matrices(build_friedrichs_keller(n))


def _record_factorizations(monkeypatch):
    """Record the matrix and order of every Factorization built; a band
    is copied, since it is factored in place."""
    built = []
    init = linalg.Factorization.__init__

    def recording_init(self, a, order=None):
        built.append((a.copy(order="F") if isinstance(a, np.ndarray) else a, order))
        init(self, a, order)

    monkeypatch.setattr(linalg.Factorization, "__init__", recording_init)
    return built


def _alternating_sets_match_fresh_factorizations(rng, monkeypatch):
    mats = _fresh_mats(8)
    m = mats.interior.size
    set_a = np.flatnonzero(rng.random(m) < 0.5)
    set_b = np.flatnonzero(rng.random(m) < 0.5)
    assert not np.array_equal(set_a, set_b)
    whole = np.arange(m)
    load = rng.standard_normal(m)
    built = _record_factorizations(monkeypatch)
    for free in (set_a, set_b, set_a, whole, set_a, whole):
        built.clear()
        got = mats.free_factorization(free).solve(load[free])
        cut, order = reference_level_cut(mats.K, mats, mats.interior[free])
        assert len(built) == 1
        assert_same_level_cut(built[0][0], cut, order)
        fresh = linalg.Factorization(cut, order)
        assert np.array_equal(got, fresh.solve(load[free]))


def test_free_factorization_alternating_sets_match_fresh_factorizations(rng, monkeypatch):
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)  # nested-dissection order
    _alternating_sets_match_fresh_factorizations(rng, monkeypatch)


def test_banded_free_factorization_alternating_sets_match_fresh_factorizations(
    rng, monkeypatch
):
    _alternating_sets_match_fresh_factorizations(rng, monkeypatch)


def test_free_factorization_key_compares_values_not_dtype():
    mats = _fresh_mats(8)
    free = np.arange(0, mats.interior.size, 2)
    fact = mats.free_factorization(free.astype(np.int64))
    assert mats.free_factorization(free.astype(np.int32)) is fact


def test_free_factorization_releases_the_whole_interior_factor():
    # the whole interior takes the one free-set slot, so the next free set frees it
    mats = _fresh_mats(8)
    whole = np.arange(mats.interior.size)
    first = weakref.ref(mats.free_factorization(whole))
    mats.free_factorization(whole[::2])
    gc.collect()
    assert first() is None


def _helmholtz_factorization_is_built_once(monkeypatch):
    mats = _fresh_mats(8)
    built = _record_factorizations(monkeypatch)
    u = np.sin(np.arange(mats.mesh.num_nodes, dtype=float))
    first = apply_P(u, mats)
    assert np.array_equal(first, apply_P(u, mats))
    assert len(built) == 1
    # K + M in the order of the level, solved as by a fresh factorization of it
    cut, order = reference_level_cut(mats.K + mats.M, mats, np.arange(mats.mesh.num_nodes))
    assert_same_level_cut(built[0][0], cut, order)
    if order is None:
        assert built[0][1] is None
    else:
        assert np.array_equal(built[0][1], mats.mesh.nested_dissection)
    assert np.array_equal(first, linalg.Factorization(cut, order).solve(mats.M @ u))
    assert mats.a_factorization is mats.a_factorization


def test_helmholtz_factorization_is_built_once(monkeypatch):
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)  # nested-dissection order
    _helmholtz_factorization_is_built_once(monkeypatch)


def test_banded_helmholtz_factorization_is_built_once(monkeypatch):
    _helmholtz_factorization_is_built_once(monkeypatch)


def test_newton_pattern_is_built_once(monkeypatch):
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    mats = _fresh_mats(8)
    built = []
    new = linalg.BlockPattern.__new__

    def recording_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(linalg.BlockPattern, "__new__", recording_new)
    sel = DerivativeSelector.from_node_set(np.arange(0, mats.interior.size, 3), mats)
    rhs = np.ones(mats.mesh.num_nodes)
    first, *_ = solve_newton_system(rhs, sel, 1e-5, mats)
    assert np.array_equal(first, solve_newton_system(rhs, sel, 1e-5, mats)[0])
    assert len(built) == 1
    assert mats.newton_block(1e-5) is mats.newton_block(1e-5)


def _paper_solve_never_refactorizes_the_same_free_set(monkeypatch):
    factorized = []  # free set, matrix and one solve of each new free-set factorization
    built = _record_factorizations(monkeypatch)
    owner = FEMatrices.free_factorization

    def recording_owner(self, free):
        before = len(built)
        fact = owner(self, free)
        if len(built) > before:
            b = np.sin(np.arange(free.size) + 1.0)
            factorized.append((self, np.array(free), built[-1][0], fact.solve(b), b))
        return fact

    monkeypatch.setattr(FEMatrices, "free_factorization", recording_owner)
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    _, _, report = run_single(config, "affine:0,-1,-1", "const:-5", 16)
    assert report.status == "converged"
    assert len(factorized) > 1
    for prev, cur in zip(factorized, factorized[1:]):
        assert not np.array_equal(prev[1], cur[1])
    # each is the cut of its level, solved as by a fresh factorization of it
    for mats, free, handed, solution, b in factorized:
        cut, order = reference_level_cut(mats.K, mats, mats.interior[free])
        assert_same_level_cut(handed, cut, order)
        assert np.array_equal(solution, linalg.Factorization(cut, order).solve(b))


def test_paper_solve_never_refactorizes_the_same_free_set(monkeypatch):
    monkeypatch.setattr(assembly, "BANDED_MAX_N", 0)  # nested-dissection order
    monkeypatch.setattr(assembly, "SCHUR_MAX_N", 0)
    _paper_solve_never_refactorizes_the_same_free_set(monkeypatch)


def test_banded_paper_solve_never_refactorizes_the_same_free_set(monkeypatch):
    _paper_solve_never_refactorizes_the_same_free_set(monkeypatch)


def _reference_band_factorization(self, free):
    """FEMatrices.free_factorization on a banded level, from the band of
    reference_level_cut, with no cached factor."""
    assert self.banded
    return linalg.Factorization(reference_level_cut(self.K, self, self.interior[free])[0])


@pytest.mark.parametrize("n, alpha", [(32, 1e-5), (48, 1e-5), (32, 1e-8)])
def test_band_cut_keeps_the_iterates_of_the_reference_cut(n, alpha, monkeypatch):
    # n = 48 has the banded coarse level 24; both runs share one process
    config = NewtonConfig(alpha=alpha, tol=PAPER_PRESET["tol"])
    fields = (PAPER_PRESET["y_d"], PAPER_PRESET["psi"])
    _, _, got = run_single(config, *fields, n)
    monkeypatch.setattr(FEMatrices, "free_factorization", _reference_band_factorization)
    _, _, expected = run_single(config, *fields, n)
    assert got.status == expected.status == "converged"
    assert len(got.history) == len(expected.history)
    for a, b in zip(got.history, expected.history):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)
        assert (a.pdas_iterations, a.coarse_pdas_iterations, a.pcg_iterations) == (
            b.pdas_iterations, b.coarse_pdas_iterations, b.pcg_iterations
        )
