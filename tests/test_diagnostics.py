import numpy as np
import pytest

from obstaclecontrol import diagnostics, newton
from obstaclecontrol.assembly import SPACE_W, NodalFunction
from obstaclecontrol.cli import registered_checks
from obstaclecontrol.diagnostics import (
    check_contraction,
    check_derivative_monotonicity,
    check_lipschitz_scaling,
    check_newton_differentiability,
    check_pointwise_convexity,
)

from conftest import mesh_and_mats


def test_convexity_small_run_passes():
    mesh, mats = mesh_and_mats(8)
    report = check_pointwise_convexity(mesh, mats, trials=10, seed=1)
    assert report.passed
    assert report.max_violation <= 1e-9


def test_convexity_deterministic():
    mesh, mats = mesh_and_mats(8)
    a = check_pointwise_convexity(mesh, mats, trials=5, seed=3)
    b = check_pointwise_convexity(mesh, mats, trials=5, seed=3)
    assert a.max_violation == b.max_violation


def test_convexity_rejects_zero_trials():
    mesh, mats = mesh_and_mats(8)
    with pytest.raises(ValueError):
        check_pointwise_convexity(mesh, mats, trials=0)


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_derivative_monotonicity(*mesh_and_mats(8), trials=0),
        lambda: check_contraction(*mesh_and_mats(8), trials=0),
        lambda: check_lipschitz_scaling(mesh_sizes=(4, 8), trials=0),
    ],
    ids=["monotonicity", "contraction", "lipschitz"],
)
def test_trial_checks_reject_zero_trials(check):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        check()


def test_monotonicity_passes():
    mesh, mats = mesh_and_mats(8)
    report = check_derivative_monotonicity(mesh, mats, trials=25, seed=2)
    assert report.passed


def test_contraction_passes():
    mesh, mats = mesh_and_mats(8)
    report = check_contraction(mesh, mats, trials=25, seed=2, alpha=1e-5)
    assert report.passed
    assert report.max_violation <= 1e-9


def test_contraction_fails_on_expanding_solve_and_run_raises(monkeypatch):
    # a Newton solve that doubles its rhs breaks the unit bound of the inverse
    monkeypatch.setattr(
        newton, "solve_block_newton", lambda block, free, rhs: 2.0 * rhs
    )
    mesh, mats = mesh_and_mats(8)
    report = check_contraction(mesh, mats, trials=3, seed=0)
    assert not report.passed
    assert report.max_violation == pytest.approx(1.0)
    with pytest.raises(newton.ContractionViolationError):
        newton.run(
            newton.NewtonConfig(alpha=1e-5),
            lambda x1, x2: -x1 - x2,
            lambda x1, x2: np.full_like(x1, -5.0),
            mesh,
            mats,
        )


def test_newton_diff_linear_regime_is_exactly_zero():
    mesh, mats = mesh_and_mats(8)
    rng = np.random.default_rng(9)
    base = NodalFunction(rng.uniform(-5, 5, mesh.num_nodes), SPACE_W, mesh)
    psi = NodalFunction(np.full(mesh.num_nodes, -1e9), SPACE_W, mesh)
    report = check_newton_differentiability(mesh, mats, base, psi=psi, seed=4)
    assert report.passed
    assert all(r <= 1e-9 for r in report.details["ratios"])


def test_newton_diff_generic_base_decays():
    mesh, mats = mesh_and_mats(8)
    rng = np.random.default_rng(11)
    base = NodalFunction(rng.uniform(-20, 20, mesh.num_nodes), SPACE_W, mesh)
    report = check_newton_differentiability(mesh, mats, base, seed=5)
    assert report.passed


@pytest.mark.parametrize("seed", [1300036, 2800041])
def test_newton_diff_round_off_remainder_passes(seed):
    # at these seeds the remainder at t = 1e-6 is round-off of the two
    # obstacle solves, about 0.6 eps (||S(b+z)|| + ||S(b)||), but above 1e-9 t
    report = registered_checks()["newton_diff"].run(seed)
    assert report.passed


def test_newton_diff_fails_with_a_wrong_derivative(monkeypatch):
    monkeypatch.setattr(
        diagnostics, "apply_G", lambda selector, a, mats: np.zeros(mats.interior.size)
    )
    report = registered_checks()["newton_diff"].run(0)
    assert report.passed is False


def test_lipschitz_report_structure():
    report = check_lipschitz_scaling(mesh_sizes=(4, 8), trials=3, seed=7)
    assert set(report.details["per_mesh_maxima"]) == {"4", "8"}
    assert report.max_violation > 0.0


def test_registry_names():
    assert set(registered_checks()) == {
        "convexity",
        "monotonicity",
        "newton_diff",
        "contraction",
        "lipschitz",
    }


def test_report_serializes():
    mesh, mats = mesh_and_mats(8)
    report = check_contraction(mesh, mats, trials=3, seed=0)
    d = report.as_dict()
    assert d["name"] == "contraction"
    assert isinstance(d["passed"], bool)
