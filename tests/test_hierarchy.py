"""The nested mesh hierarchy: FEMatrices.coarse, the P1 prolongation
from n/2 to n, injection, the rule that moves active sets up, and the
coarse level of the Newton preconditioner."""

import numpy as np
import pytest

from obstaclecontrol.assembly import COARSEST_N, build_matrices, inject
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.obstacle import prolong_active

from conftest import mesh_and_mats


def p1_value(coarse_values, nc, x1, x2):
    """A P1 function on the mesh nc, evaluated on its triangles: the
    lower one (ll, lr, ur) below the diagonal of each cell, the upper
    one (ll, ur, ul) above it."""
    i = np.minimum((x1 * nc).astype(int), nc - 1)
    j = np.minimum((x2 * nc).astype(int), nc - 1)
    s, t = x1 * nc - i, x2 * nc - j
    v = coarse_values.reshape(nc + 1, nc + 1)
    ll, lr, ul, ur = v[j, i], v[j, i + 1], v[j + 1, i], v[j + 1, i + 1]
    lower = (1 - s) * ll + (s - t) * lr + t * ur
    upper = (1 - t) * ll + s * ur + (t - s) * ul
    return np.where(s >= t, lower, upper)


@pytest.mark.parametrize("nc", [8, 16, 32])
def test_galerkin_identity(nc):
    _, coarse = mesh_and_mats(nc)
    _, fine = mesh_and_mats(2 * nc)
    p = fine.prolongation
    assert abs(p.T @ fine.K @ p - coarse.K).max() <= 1e-14
    assert abs(p.T @ fine.M @ p - coarse.M).max() <= 1e-18


@pytest.mark.parametrize("nc", [2, 8, 16])
def test_prolongation_reproduces_p1_functions(nc, rng):
    coarse_mesh, _ = mesh_and_mats(nc)
    fine_mesh, fine = mesh_and_mats(2 * nc)
    p = fine.prolongation
    x1, x2 = fine_mesh.nodes.T
    affine = 0.3 + 2.0 * coarse_mesh.nodes[:, 0] - 1.7 * coarse_mesh.nodes[:, 1]
    assert np.max(np.abs(p @ affine - (0.3 + 2.0 * x1 - 1.7 * x2))) <= 1e-14
    values = rng.standard_normal(coarse_mesh.num_nodes)
    assert np.max(np.abs(p @ values - p1_value(values, nc, x1, x2))) <= 1e-14


def test_injection_inverts_prolongation(rng):
    for nc in (2, 8, 16):
        fine_mesh, fine = mesh_and_mats(2 * nc)
        values = rng.standard_normal((nc + 1) ** 2)
        assert np.array_equal(inject(fine.prolongation @ values, fine_mesh, nc), values)


@pytest.mark.parametrize("n, n_c", [(64, 16), (96, 24), (128, 16), (128, 32)])
def test_injection_to_a_level_is_repeated_halving(n, n_c, rng):
    full = rng.standard_normal((n + 1) ** 2)
    halved, m = full, n
    while m > n_c:
        halved, m = inject(halved, build_friedrichs_keller(m), m // 2), m // 2
    assert np.array_equal(inject(full, build_friedrichs_keller(n), n_c), halved)


def test_prolonged_active_set_needs_both_ends(rng):
    mesh, mats = mesh_and_mats(64)
    coarse = mats.coarse
    nc = coarse.mesh.n
    coarse_active = rng.random(coarse.interior.size) < 0.5
    fine_active = prolong_active(mats, coarse_active)

    on = np.zeros((nc + 1) ** 2, dtype=bool)
    on[coarse.interior[coarse_active]] = True
    on = on.reshape(nc + 1, nc + 1)
    fine = np.arange(mesh.n + 1)
    lo, hi = fine // 2, (fine + 1) // 2
    # fine node (I, J) is the midpoint of (lo[I], lo[J]) -- (hi[I], hi[J])
    expected = (on[np.ix_(lo, lo)] & on[np.ix_(hi, hi)]).ravel()[mats.interior]
    assert np.array_equal(fine_active, expected)
    assert np.count_nonzero(fine_active) >= np.count_nonzero(coarse_active)


def test_single_active_coarse_node_stays_alone():
    _, mats = mesh_and_mats(32)
    coarse = mats.coarse
    coarse_active = np.zeros(coarse.interior.size, dtype=bool)
    coarse_active[coarse.interior.size // 2] = True
    # its six neighbouring midpoints read 0.5, which is not above the threshold
    fine_active = prolong_active(mats, coarse_active)
    assert np.count_nonzero(fine_active) == 1
    node = coarse.interior[coarse_active][0]
    i, j = node % (coarse.mesh.n + 1), node // (coarse.mesh.n + 1)
    assert mats.interior[fine_active][0] == 2 * j * (mats.mesh.n + 1) + 2 * i


@pytest.mark.parametrize("n", [2, 9, 16, 30, 31, 33])
def test_no_coarse_level_for_odd_or_small_meshes(n):
    mats = build_matrices(build_friedrichs_keller(n))
    assert mats.coarse is None and mats.newton_coarse(1e-5) is None


def test_coarse_levels_are_built_once_on_first_use():
    mats = build_matrices(build_friedrichs_keller(4 * COARSEST_N))
    assert "coarse" not in mats.__dict__
    coarse = mats.coarse
    assert coarse is mats.coarse
    assert coarse.mesh.n == 2 * COARSEST_N
    assert coarse.coarse is coarse.coarse
    assert coarse.coarse.mesh.n == COARSEST_N
    assert coarse.coarse.coarse is None
    assert mats.prolongation is mats.prolongation
    assert mats.prolongation.shape == (mats.mesh.num_nodes, coarse.mesh.num_nodes)


@pytest.mark.parametrize(
    "n, alpha, n_c",
    [
        *[(32, alpha, 16) for alpha in (1e-5, 1e-8, 1e-10)],
        (48, 1e-5, 24),
        (96, 1e-5, 24),  # a stride of 4 on a mesh size that is not a power of two
        (64, 1e-5, 16),
        (64, 1e-8, 32),
        (128, 1e-5, 16),
        (128, 1e-6, 32),
        (128, 1e-8, 64),
    ],
)
def test_newton_coarse_level_rule(n, alpha, n_c):
    _, mats = mesh_and_mats(n)
    assert mats.newton_coarse(alpha).level.mesh.n == n_c


@pytest.mark.parametrize("n, alpha, levels", [(64, 1e-5, 2), (128, 1e-5, 3)])
def test_composite_prolongation_is_galerkin(n, alpha, levels):
    _, fine = mesh_and_mats(n)
    link = fine.newton_coarse(alpha)
    assert link is fine.newton_coarse(alpha)  # built once per level pair
    product, level = fine.prolongation, fine.coarse
    for _ in range(levels - 1):
        product, level = product @ level.prolongation, level.coarse
    assert link.level is level
    assert abs(link.prolongation - product).max() == 0.0
    assert abs(link.restriction - product.T).max() == 0.0
    assert abs(link.restriction @ fine.M @ link.prolongation - level.M).max() <= 1e-18
