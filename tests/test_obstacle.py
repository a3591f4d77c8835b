import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstaclecontrol import obstacle
from obstaclecontrol.assembly import SPACE_W, NodalFunction, build_matrices, interpolate
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.obstacle import (
    InfeasibleConstraintsError,
    ObstacleSolution,
    PdasNoConvergenceError,
    classify_nodes,
    solve_obstacle,
)

from conftest import brute_force_oracle, mesh_and_mats


def const_field(mesh, c):
    return NodalFunction(np.full(mesh.num_nodes, float(c)), SPACE_W, mesh)


def random_instance(mesh, rng):
    z = NodalFunction(rng.uniform(-50, 50, mesh.num_nodes), SPACE_W, mesh)
    psi = NodalFunction(rng.uniform(-2, -0.01, mesh.num_nodes), SPACE_W, mesh)
    return z, psi


def check_kkt(sol: ObstacleSolution, z, psi, mesh, mats):
    psi_int = psi.extended()[mats.interior]
    load = (mats.M @ z.extended())[mats.interior]
    w = sol.w.values
    scale = 1.0 + np.max(np.abs(load))
    assert np.all(w >= psi_int - 1e-12 * (1.0 + np.abs(psi_int)))
    assert np.all(sol.lam >= -1e-10)
    assert np.max(np.abs(sol.lam * (w - psi_int))) <= 1e-9 * scale
    stationarity = mats.K_int @ w - load - sol.lam
    assert np.max(np.abs(stationarity)) <= 1e-10 * scale


def test_zero_load_deep_obstacle_inactive():
    mesh, mats = mesh_and_mats(4)
    sol = solve_obstacle(const_field(mesh, 0.0), const_field(mesh, -5.0), mesh, mats)
    assert np.max(np.abs(sol.w.values)) == 0.0
    assert np.max(np.abs(sol.lam)) == 0.0
    assert sol.strictly_active.size == 0
    assert sol.biactive.size == 0
    assert sol.inactive.size == mats.interior.size


def test_degenerate_contact_all_biactive():
    mesh, mats = mesh_and_mats(4)
    # psi = 0 in the interior but negative on the boundary keeps K_h nonempty
    psi_vals = np.where(mesh.boundary_mask, -1.0, 0.0)
    psi = NodalFunction(psi_vals, SPACE_W, mesh)
    sol = solve_obstacle(const_field(mesh, 0.0), psi, mesh, mats)
    assert np.max(np.abs(sol.w.values)) <= 1e-14
    assert np.max(np.abs(sol.lam)) <= 1e-14
    assert sol.inactive.size == 0
    assert sol.strictly_active.size == 0
    assert sol.biactive.size == mats.interior.size


def test_strong_load_matches_oracle():
    mesh, mats = mesh_and_mats(4)
    z = const_field(mesh, -10.0)
    psi = const_field(mesh, -0.01)
    a = solve_obstacle(z, psi, mesh, mats)
    b = brute_force_oracle(z, psi, mesh, mats)
    assert np.max(np.abs(a.w.values - b.w.values)) < 1e-10
    assert np.array_equal(a.strictly_active, b.strictly_active)
    assert np.array_equal(a.inactive, b.inactive)
    assert a.strictly_active.size > 0  # the load pushes into the obstacle


def test_single_interior_node_closed_form(rng):
    mesh, mats = mesh_and_mats(2)
    for _ in range(10):
        z, psi = random_instance(mesh, rng)
        sol = brute_force_oracle(z, psi, mesh, mats)
        load = (mats.M @ z.extended())[mats.interior]
        k00 = mats.K_int.toarray()[0, 0]
        psi0 = psi.extended()[mats.interior][0]
        assert sol.w.values[0] == pytest.approx(max(psi0, load[0] / k00), abs=1e-12)


def test_oracle_equivalence_randomized(rng):
    mesh, mats = mesh_and_mats(4)
    for _ in range(25):
        z, psi = random_instance(mesh, rng)
        a = solve_obstacle(z, psi, mesh, mats)
        b = brute_force_oracle(z, psi, mesh, mats)
        assert np.max(np.abs(a.w.values - b.w.values)) < 1e-10
        assert np.array_equal(a.inactive, b.inactive)
        check_kkt(a, z, psi, mesh, mats)


def test_oracle_rejects_large_mesh():
    mesh, mats = mesh_and_mats(8)
    with pytest.raises(ValueError):
        brute_force_oracle(const_field(mesh, 0.0), const_field(mesh, -1.0), mesh, mats)


def test_infeasible_obstacle():
    mesh, mats = mesh_and_mats(4)
    with pytest.raises(InfeasibleConstraintsError):
        solve_obstacle(const_field(mesh, 0.0), const_field(mesh, 0.0), mesh, mats)


def test_pdas_cap_raises(monkeypatch):
    mesh, mats = mesh_and_mats(8)
    z = const_field(mesh, -10.0)
    psi = const_field(mesh, -0.01)
    assert solve_obstacle(z, psi, mesh, mats).pdas_iterations >= 2
    monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", 1)
    with pytest.raises(PdasNoConvergenceError):
        solve_obstacle(z, psi, mesh, mats)


def test_pdas_cap_names_the_level_and_the_last_iterate(monkeypatch):
    mesh, mats = mesh_and_mats(8)
    psi = const_field(mesh, -0.05)
    start = solve_obstacle(const_field(mesh, -2.0), psi, mesh, mats)
    active = int(np.count_nonzero(start.active_masks[0]))
    free = mats.interior.size - active
    assert active > 0 and free > 0
    # the only iterate is the warm start's active set
    monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", 1)
    message = (
        r"^level n=8: active set did not settle within 1 iterations; "
        rf"last iterate \|free\| = {free}, \|active\| = {active}$"
    )
    with pytest.raises(PdasNoConvergenceError, match=message):
        solve_obstacle(const_field(mesh, -4.0), psi, mesh, mats, warm_start=start)


def test_warm_start_reaches_same_solution(rng):
    mesh, mats = mesh_and_mats(8)
    z, psi = random_instance(mesh, rng)
    cold = solve_obstacle(z, psi, mesh, mats)
    warm = solve_obstacle(z, psi, mesh, mats, warm_start=cold)
    assert np.array_equal(cold.w.values, warm.w.values)
    assert warm.pdas_iterations <= cold.pdas_iterations


def test_warm_start_on_the_hierarchy_reaches_the_cold_solution(rng):
    mesh, mats = mesh_and_mats(64)
    z, psi = random_instance(mesh, rng)
    cold = solve_obstacle(z, psi, mesh, mats)
    assert [a.size for a in cold.active_masks] == [63**2] and cold.coarse_pdas_iterations == ()
    # a nearby load: the previous solution is a warm start for it
    z2 = NodalFunction(z.values * 1.1, SPACE_W, mesh)
    answer = solve_obstacle(z2, psi, mesh, mats).w.values
    first = solve_obstacle(z2, psi, mesh, mats, warm_start=cold)
    # a warm solve runs every level, whether or not it has their masks
    assert [a.size for a in first.active_masks] == [63**2, 31**2, 15**2]
    assert len(first.coarse_pdas_iterations) == 2
    second = solve_obstacle(z2, psi, mesh, mats, warm_start=first)
    assert [a.size for a in second.active_masks] == [63**2, 31**2, 15**2]
    assert np.array_equal(second.active_masks[1], first.active_masks[1])
    # a warm start with no masks starts the coarsest level with every node free
    bare = solve_obstacle(z2, psi, mesh, mats, warm_start=dataclasses.replace(cold, active_masks=()))
    for sol in (first, second, bare):
        assert np.array_equal(sol.w.values, answer)


def test_pdas_cap_on_a_coarse_level_names_it(monkeypatch):
    mesh, mats = mesh_and_mats(32)
    z = const_field(mesh, -10.0)
    psi = const_field(mesh, -0.01)
    sol = solve_obstacle(z, psi, mesh, mats)
    # n=16 has no previous active set and starts cold, which takes more
    # than one iteration under this load
    monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", 1)
    with pytest.raises(PdasNoConvergenceError, match=r"^coarse level n=16: active set did not settle within 1 "):
        solve_obstacle(z, psi, mesh, mats, warm_start=sol)


def test_classification_partitions_interior(rng):
    mesh, mats = mesh_and_mats(8)
    z, psi = random_instance(mesh, rng)
    sol = solve_obstacle(z, psi, mesh, mats)
    m = mats.interior.size
    union = np.concatenate([sol.inactive, sol.strictly_active, sol.biactive])
    assert np.array_equal(np.sort(union), np.arange(m))


def test_classify_threshold_semantics():
    w = np.array([0.5, 0.0, 0.0])
    psi = np.zeros(3)
    lam = np.array([0.0, 5e-11, 2e-10])
    inactive, strict, biactive = classify_nodes(w, lam, psi)
    assert list(inactive) == [0]
    assert list(strict) == [2]
    assert list(biactive) == [1]  # multiplier below 1e-10 is biactive


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_pointwise_convexity_property(seed, lam):
    mesh, mats = mesh_and_mats(8)
    rng = np.random.default_rng(seed)
    psi = const_field(mesh, -1.0)
    z1 = NodalFunction(rng.uniform(-10, 10, mesh.num_nodes), SPACE_W, mesh)
    z2 = NodalFunction(rng.uniform(-10, 10, mesh.num_nodes), SPACE_W, mesh)
    s1 = solve_obstacle(z1, psi, mesh, mats).w.values
    s2 = solve_obstacle(z2, psi, mesh, mats).w.values
    mix = NodalFunction(lam * z1.values + (1 - lam) * z2.values, SPACE_W, mesh)
    s_mix = solve_obstacle(mix, psi, mesh, mats).w.values
    assert np.max(s_mix - (lam * s1 + (1 - lam) * s2)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotonicity_in_the_load(seed):
    mesh, mats = mesh_and_mats(8)
    rng = np.random.default_rng(seed)
    psi = const_field(mesh, -1.0)
    z1_vals = rng.uniform(-10, 10, mesh.num_nodes)
    z2 = NodalFunction(z1_vals + rng.uniform(0, 5, mesh.num_nodes), SPACE_W, mesh)
    z1 = NodalFunction(z1_vals, SPACE_W, mesh)
    s1 = solve_obstacle(z1, psi, mesh, mats).w.values
    s2 = solve_obstacle(z2, psi, mesh, mats).w.values
    assert np.all(s1 <= s2 + 1e-9)


def test_lipschitz_ratio_reported_across_meshes(rng):
    # evidence of a mesh-independent bound; reported, not pinned to a constant
    from obstaclecontrol.assembly import vector_norm

    maxima = []
    for n in (8, 16, 32):
        mesh, mats = mesh_and_mats(n)
        psi = const_field(mesh, -1.0)
        u = NodalFunction(rng.uniform(-10, 10, mesh.num_nodes), SPACE_W, mesh)
        su = solve_obstacle(u, psi, mesh, mats).w.values
        worst = 0.0
        for t in (1e-1, 1e-2, 1e-3):
            d = rng.uniform(-1, 1, mesh.num_nodes)
            d /= vector_norm(d, "L2", mats.K, mats.M)
            uz = NodalFunction(u.values + t * d, SPACE_W, mesh)
            suz = solve_obstacle(uz, psi, mesh, mats).w.values
            diff = np.zeros(mesh.num_nodes)
            diff[mats.interior] = suz - su
            worst = max(worst, vector_norm(diff, "L2", mats.K, mats.M) / t)
        maxima.append(worst)
    assert all(np.isfinite(maxima))


def test_cold_solve_builds_no_coarse_level(rng):
    mesh = build_friedrichs_keller(32)
    mats = build_matrices(mesh)
    z, psi = random_instance(mesh, rng)
    assert len(solve_obstacle(z, psi, mesh, mats).active_masks) == 1
    assert "coarse" not in mats.__dict__
