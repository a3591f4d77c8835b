"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import run as bench
import spans

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def pkg():
    return bench.import_package()


def _paper_solve(pkg, n):
    mesh = pkg.mesh.build_friedrichs_keller(n)
    mats = pkg.assembly.build_matrices(mesh)
    config = pkg.newton.NewtonConfig(alpha=bench.PAPER["alpha"], tol=bench.PAPER["tol"])
    return pkg.newton.run(
        config, lambda x1, x2: -x1 - x2, lambda x1, x2: np.full_like(x1, -5.0), mesh, mats
    )


def test_wrapper_coverage_on_paper_solve(pkg, monkeypatch):
    splu_calls = []
    real_splu = spla.splu

    def counting_splu(*args, **kwargs):
        splu_calls.append(1)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        report = _paper_solve(pkg, 8)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 1)

    assert report.status == "converged"
    assert metrics["obstacle.solve.calls"]["value"] == report.iterations + 1
    assert metrics["linalg.block_newton.calls"]["value"] == report.iterations
    # every SuperLU factorization is inside a factorize or block_newton span
    factorized = [
        rec for rec in tracer.spans
        if rec[spans.NAME] == "linalg.factorize" and rec[spans.ATTRS]["size"] > 0
    ]
    assert len(splu_calls) == len(factorized) + report.iterations
    assert not hasattr(pkg.newton.run, "__wrapped__")
    assert not hasattr(pkg.linalg.Factorization.__init__, "__wrapped__")


def test_cg_operator_applies_are_counted(pkg):
    mesh = pkg.mesh.build_friedrichs_keller(4)
    mats = pkg.assembly.build_matrices(mesh)
    selector = pkg.operators.DerivativeSelector.from_node_set([], mats)
    tracer = spans.Tracer()
    tracer.install()
    try:
        pkg.newton.solve_newton_system_cg(np.ones(mesh.num_nodes), selector, 1e-5, mats)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["linalg.cg.calls"]["value"] == 1
    # one apply for the initial residual, one per CG iteration
    assert metrics["linalg.cg_operator_applies"]["value"] >= 2
    assert metrics["operators.apply_P.calls"]["value"] == 2 * metrics["linalg.cg_operator_applies"]["value"]


def test_missing_target_is_reported_not_fatal(pkg):
    tracer = spans.Tracer(
        spans.TARGETS
        + [
            ("linalg", "no_such_function", "linalg.gone", None, None),
            ("no_such_module", "run", "gone.run", None, None),
        ]
    )
    with pytest.warns(UserWarning, match="no_such_function"):
        missing = tracer.install()
    tracer.uninstall()
    assert missing == [
        "obstaclecontrol.linalg.no_such_function",
        "obstaclecontrol.no_such_module.run",
    ]


def test_self_time_excludes_child_spans():
    records = [
        ["obstacle.solve", 0.0, 10.0, -1, 0, 4.0, {"pdas": 2}],
        ["linalg.factorize", 1.0, 4.0, 0, 0, 0.0, {"size": 5, "fill": 7}],
        ["linalg.fact_solve", 5.0, 6.0, 0, 0, 0.0, {}],
    ]
    metrics = spans.layer_metrics(records, units=2)
    assert metrics["obstacle.solve_s"]["value"] == 5.0
    assert metrics["obstacle.self_s"]["value"] == 3.0
    assert metrics["obstacle.factorizations_per_pdas_iteration"]["value"] == 0.5
    assert metrics["linalg.factor_fill_nnz"]["value"] == 3.5


def test_times_are_divided_by_the_bracketing_reference():
    slow = {"wall_s": 3.0, "ref_wall_s": 3 * bench.Reference.SECONDS}
    fast = {"wall_s": 1.0, "ref_wall_s": bench.Reference.SECONDS}
    # the same work, once on a busy and twice on a quiet machine
    assert bench.in_reference_seconds([slow, fast, fast], "wall_s") == pytest.approx(1.0)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric(trace, kind, capsys):
    args = ["--workload", "checks", "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
    assert bench.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == len(bench.CHECK_NAMES)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
