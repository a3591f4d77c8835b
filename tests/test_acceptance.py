"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line.  The mesh sweep over
n = 16..256 is shared by the first three criteria and dominates the
runtime of this module.
"""

import time

import numpy as np
import pytest

from obstaclecontrol.assembly import NodalFunction, build_matrices, vector_norm
from obstaclecontrol.cli import PAPER_PRESET, paper_converged_zeta, run_sweep
from obstaclecontrol.diagnostics import (
    check_contraction,
    check_derivative_monotonicity,
    check_newton_differentiability,
    check_pointwise_convexity,
)
from obstaclecontrol.mesh import build_friedrichs_keller
from obstaclecontrol.newton import (
    NewtonConfig,
    run,
    solve_newton_system,
    solve_newton_system_cg,
)
from obstaclecontrol.obstacle import solve_obstacle
from obstaclecontrol.operators import DerivativeSelector

from conftest import brute_force_oracle

REFERENCE_ITERATIONS = {16: 6, 32: 6, 64: 6, 128: 7, 256: 6}


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def paper_sweep():
    start = time.monotonic()
    result = run_sweep(
        alpha=PAPER_PRESET["alpha"],
        tol=PAPER_PRESET["tol"],
        y_d_spec=PAPER_PRESET["y_d"],
        psi_spec=PAPER_PRESET["psi"],
        sizes=PAPER_PRESET["sizes"],
    )
    return result, time.monotonic() - start


def test_table1_iteration_counts(paper_sweep):
    result, elapsed = paper_sweep
    counts = {round(1 / r.h): r.iterations for r in result.rows}
    ok_counts = all(
        abs(counts[n] - REFERENCE_ITERATIONS[n]) <= 1 for n in REFERENCE_ITERATIONS
    )
    ok_residues = all(r.final_residue <= 1e-7 for r in result.rows)
    ok_time = elapsed <= 180.0
    _report(
        "table1-iteration-counts",
        ok_counts and ok_residues and ok_time,
        f"counts={counts}, runtime={elapsed:.1f}s",
    )
    assert ok_counts
    assert ok_residues
    assert ok_time


def test_table1_eoc_trend(paper_sweep):
    result, _ = paper_sweep
    by_n = {round(1 / r.h): r for r in result.rows}
    eoc_256 = by_n[256].eoc_l2_y
    ok_l2 = abs(eoc_256 - 1.8745) <= 0.25
    fine = [by_n[n] for n in (32, 64, 128, 256)]
    ok_rest = all(
        r.eoc_h1_ytilde >= 1.5 and r.eoc_h10_u >= 1.5 for r in fine
    )
    _report(
        "table1-eoc-trend",
        ok_l2 and ok_rest,
        f"L2-EOC(n=256)={eoc_256:.4f}",
    )
    assert ok_l2
    assert ok_rest


def test_mesh_independence(paper_sweep):
    result, _ = paper_sweep
    counts = [r.iterations for r in result.rows]
    spread = max(counts) - min(counts)
    _report("mesh-independence", spread <= 2, f"spread={spread}")
    assert spread <= 2


def test_oracle_equivalence():
    mesh = build_friedrichs_keller(4)
    mats = build_matrices(mesh)
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    agree = True
    for _ in range(50):
        z = NodalFunction(rng.uniform(-60, 60, mesh.num_nodes), mesh)
        psi = NodalFunction(rng.uniform(-3, -0.01, mesh.num_nodes), mesh)
        a = solve_obstacle(z, psi, mats)
        b = brute_force_oracle(z, psi, mats)
        worst = max(worst, float(np.max(np.abs(a.w - b.w))))
        agree = agree and np.array_equal(a.inactive, b.inactive)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and agree and elapsed <= 10.0
    _report(
        "oracle-equivalence", ok, f"max diff={worst:.2e}, runtime={elapsed:.1f}s"
    )
    assert worst <= 1e-10
    assert agree
    assert elapsed <= 10.0


def test_convexity_suite():
    mesh = build_friedrichs_keller(16)
    report = check_pointwise_convexity(mesh, build_matrices(mesh), trials=100, seed=42)
    _report("convexity-suite", report.passed, f"max violation={report.max_violation:.2e}")
    assert report.passed
    assert report.max_violation <= 1e-9


def test_monotonicity_suite():
    mesh = build_friedrichs_keller(8)
    report = check_derivative_monotonicity(mesh, build_matrices(mesh), trials=100, seed=0)
    _report(
        "monotonicity-suite", report.passed, f"worst scaled pairing=-{report.max_violation:.2e}"
    )
    assert report.passed
    assert report.max_violation <= 1e-12


def test_contraction_suite():
    mesh = build_friedrichs_keller(8)
    report = check_contraction(
        mesh, build_matrices(mesh), trials=100, seed=0, alpha=1e-5
    )
    _report(
        "contraction-suite", report.passed, f"max ratio excess={report.max_violation:.2e}"
    )
    assert report.passed
    assert report.max_violation <= 1e-9


def test_semismoothness_ratio():
    mesh, mats, zeta, psi = paper_converged_zeta(16)
    report = check_newton_differentiability(mesh, mats, zeta, psi=psi, seed=0)
    ratios = report.details["ratios"]
    ok = ratios[-1] == 0.0 or ratios[-1] <= max(0.1 * ratios[0], 1e-9)
    _report(
        "semismoothness-ratio", ok,
        f"ratios {ratios[0]:.3e} -> {ratios[-1]:.3e}",
    )
    assert ok


def test_superlinear_tail():
    mesh = build_friedrichs_keller(64)
    mats = build_matrices(mesh)
    config = NewtonConfig(alpha=PAPER_PRESET["alpha"], tol=PAPER_PRESET["tol"])
    report = run(
        config,
        lambda x1, x2: -x1 - x2,
        lambda x1, x2: np.full_like(x1, -5.0),
        mesh,
        mats,
    )
    r = report.residuals
    final_drop = r[-1] / r[-2]
    improving = r[-1] / r[-2] < r[-2] / r[-3]
    ok = final_drop <= 0.05 and improving
    _report("superlinear-tail", ok, f"final drop={final_drop:.2e}")
    assert final_drop <= 0.05
    assert improving


def test_cross_solver_consistency():
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (8, 16, 32):  # n = 32 solves by two-grid PCG
        mesh = build_friedrichs_keller(n)
        mats = build_matrices(mesh)
        m = mats.interior.size
        for _ in range(20):
            sel = DerivativeSelector.from_node_set(
                np.flatnonzero(rng.random(m) < rng.uniform(0, 1)), mats
            )
            rhs = rng.standard_normal(mesh.num_nodes)
            direct, *_ = solve_newton_system(rhs, sel, 1e-5, mats)
            iterative, _ = solve_newton_system_cg(rhs, sel, 1e-5, mats)
            rel = vector_norm(direct - iterative, "L2", mats.K, mats.M) / vector_norm(
                direct, "L2", mats.K, mats.M
            )
            worst = max(worst, rel)
    ok = worst <= 5e-9
    _report("cross-solver-consistency", ok, f"worst rel diff={worst:.2e}")
    assert ok
