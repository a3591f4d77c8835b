import json
import math
import weakref

import numpy as np
import pytest

from obstaclecontrol import cli, linalg, newton, obstacle
from obstaclecontrol.assembly import build_matrices, interpolate
from obstaclecontrol.cli import (
    PAPER_PRESET,
    UsageError,
    compute_eoc,
    export_fields,
    main,
    parse_field,
    run_single,
    run_sweep,
    write_vtk,
)
from obstaclecontrol.linalg import CgNoConvergenceError
from obstaclecontrol.newton import NewtonConfig

from conftest import mesh_and_mats, read_vtk, singular_splu


def test_parse_const_field():
    f = parse_field("const:-5")
    x = np.array([0.0, 0.5])
    assert np.all(f(x, x) == -5.0)


def test_parse_affine_field():
    f = parse_field("affine:0,-1,-1")
    assert f(np.array([0.25]), np.array([0.5]))[0] == pytest.approx(-0.75)


@pytest.mark.parametrize("bad", ["const:abc", "affine:1,2", "poly:1,2,3"])
def test_parse_field_errors(bad):
    with pytest.raises(UsageError):
        parse_field(bad)


def _history_from_diffs(mesh, diffs):
    # scalar multiples of a fixed vector so the chosen norm cancels
    base = np.ones(mesh.num_nodes)
    vals = [0.0]
    for d in diffs:
        vals.append(vals[-1] + d)
    return [v * base for v in vals]


def test_eoc_quadratic_history():
    # consecutive difference norms 0.5^(2^i): doubly geometric decay
    mesh, mats = mesh_and_mats(4)
    history = _history_from_diffs(mesh, [0.5**2, 0.5**4, 0.5**8])
    assert compute_eoc(history, "L2", mats.K, mats.M) == pytest.approx(2.0, abs=1e-10)


def test_eoc_linear_history():
    mesh, mats = mesh_and_mats(4)
    history = _history_from_diffs(mesh, [0.5, 0.5**2, 0.5**3])
    assert compute_eoc(history, "L2", mats.K, mats.M) == pytest.approx(1.0, abs=1e-10)


def test_eoc_needs_four_iterates():
    mesh, mats = mesh_and_mats(4)
    with pytest.raises(ValueError):
        compute_eoc([np.zeros(mesh.num_nodes)] * 3, "L2", mats.K, mats.M)


def test_eoc_zero_difference_reported_absent():
    mesh, mats = mesh_and_mats(4)
    v = np.ones(mesh.num_nodes)
    assert compute_eoc([v, v, v, v], "L2", mats.K, mats.M) is None


def test_sweep_single_mesh_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_sweep(
        alpha=PAPER_PRESET["alpha"],
        tol=PAPER_PRESET["tol"],
        y_d_spec=PAPER_PRESET["y_d"],
        psi_spec=PAPER_PRESET["psi"],
        sizes=[16],
        out_csv=str(out),
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "h,iterations,final_residue,eoc_l2_y,eoc_h1_ytilde,eoc_h10_u"
    assert len(lines) == 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0625
    assert result.rows[0].status == "converged"
    assert result.rows[0].eoc_l2_y is not None


def test_sweep_csv_deterministic(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_sweep(
            alpha=1e-5, tol=1e-7, y_d_spec="affine:0,-1,-1", psi_spec="const:-5",
            sizes=[8], out_csv=str(out),
        )
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_sweep_releases_each_runs_matrices(monkeypatch):
    # a run's FEMatrices, with its factors, is gone before the next run builds its own
    built = []
    alive = []  # FEMatrices of earlier runs alive as each run starts
    real = cli.build_matrices

    def recording(mesh):
        alive.append(sum(ref() is not None for ref in built))
        mats = real(mesh)
        built.append(weakref.ref(mats))
        return mats

    monkeypatch.setattr(cli, "build_matrices", recording)
    result = run_sweep(
        alpha=1e-5, tol=1e-7, y_d_spec="affine:0,-1,-1", psi_spec="const:-5", sizes=[8, 10, 12],
    )
    assert [row.status for row in result.rows] == ["converged"] * 3
    assert alive == [0, 0, 0]


def test_sweep_empty_sizes_rejected():
    for sizes in ([], [8, 8]):  # no size, a repeated size
        with pytest.raises(UsageError):
            run_sweep(
                alpha=1e-5, tol=1e-7, y_d_spec="const:0", psi_spec="const:-5", sizes=sizes
            )


def test_sweep_failure_row_gets_status_column(tmp_path):
    out = tmp_path / "fail.csv"
    run_sweep(
        alpha=1e-5, tol=0.0, y_d_spec="affine:0,-1,-1", psi_spec="const:-5",
        sizes=[8], max_iter=2, out_csv=str(out),
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",status")
    assert lines[1].endswith("max_iter_reached")


def test_vtk_zero_fields_roundtrip(tmp_path):
    mesh, _ = mesh_and_mats(2)
    path = tmp_path / "zero.vtk"
    fields = {name: np.zeros(9) for name in ("y_D", "y_tilde", "u", "lambda")}
    write_vtk(mesh, fields, str(path))
    text = path.read_text()
    assert "POINTS 9 double" in text
    assert "CELLS 8 32" in text
    assert text.count("SCALARS") == 4
    points, cells, parsed = read_vtk(str(path))
    assert points.shape == (9, 3)
    assert cells.shape == (8, 3)
    for name in fields:
        assert np.array_equal(parsed[name], fields[name])


def test_vtk_roundtrip_bit_exact(tmp_path):
    mesh, mats = mesh_and_mats(4)
    rng = np.random.default_rng(3)
    fields = {
        "y_D": rng.standard_normal(mesh.num_nodes),
        "y_tilde": rng.standard_normal(mesh.num_nodes),
        "u": rng.standard_normal(mesh.num_nodes),
        "lambda": rng.standard_normal(mesh.num_nodes),
    }
    path = tmp_path / "fields.vtk"
    write_vtk(mesh, fields, str(path))
    _, _, parsed = read_vtk(str(path))
    for name, vals in fields.items():
        assert np.array_equal(parsed[name], vals)


def test_export_after_solve_has_nonzero_multiplier(tmp_path):
    config = NewtonConfig(alpha=1e-5, tol=1e-7)
    _, mats, report = run_single(config, "affine:0,-1,-1", "const:-5", 16)
    path = tmp_path / "run.vtk"
    export_fields(report, mats, str(path))
    _, _, parsed = read_vtk(str(path))
    assert set(parsed) == {"y_D", "y_tilde", "u", "lambda"}
    assert np.max(np.abs(parsed["lambda"])) > 0.0


def test_cli_solve_exit_code(tmp_path, capsys):
    code = main(["solve", "--preset", "paper", "--n", "8"])
    assert code == 0
    assert "converged" in capsys.readouterr().out


def test_cli_check_unknown_name(capsys):
    code = main(["check", "--names", "foo"])
    assert code == 2
    err = capsys.readouterr().err
    assert "foo" in err and "convexity" in err


def test_cli_check_empty_names_is_a_usage_error_before_any_check(monkeypatch, capsys):
    # --names= lists no check; it does not fall back to the whole suite
    def fail(seed, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "registered_checks", lambda: {"contraction": cli.RegisteredCheck(fail)})
    assert main(["check", "--names="]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: unknown check(s) ['']")


def test_cli_check_zero_trials(capsys):
    code = main(["check", "--names", "convexity", "--trials", "0"])
    assert code == 2


# A command and a flag that no longer exist: solve --out writes the fields,
# and N is always the strictly active set.  The --out directory is missing,
# so not even a program that accepted export could write there.
_REMOVED_FROM_THE_COMMAND_LINE = [
    ["export", "--preset", "paper", "--n", "8", "--out", "missing/f.vtk"],
    ["solve", "--preset", "paper", "--n", "8", "--selector", "strict_only"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "paper", "--alpha", "-1"],
        ["solve", "--preset", "paper", "--n", "1"],
        ["solve", "--preset", "paper", "--max-iter", "0"],
        ["solve", "--preset", "paper", "--n", "8", "--psi", "const:1"],
        ["sweep", "--preset", "paper", "--sizes", "1"],
        ["check", "--names", "newton_diff", "--trials", "3"],
        ["solve", "--preset", "paper", "--n", "8", "--alpha", "nan"],
        ["solve", "--preset", "paper", "--n", "8", "--tol", "nan"],
        ["solve", "--preset", "paper", "--n", "8", "--alpha", "inf"],
        ["sweep", "--preset", "paper", "--sizes", "16,a"],
        ["solve", "--preset", "paper", "--n", "8", "--psi", "const:nan"],
        ["solve", "--preset", "paper", "--n", "8", "--y-d", "const:inf"],
        ["check", "--names", "monotonicity", "--seed", "-1"],
        ["sweep", "--preset", "paper", "--sizes", "8,8"],
        ["check", "--names", "contraction,contraction", "--trials", "2"],
        # finite coefficients whose field overflows on the unit square
        ["solve", "--preset", "paper", "--n", "8", "--y-d", "affine:1e308,1e308,1e308"],
        ["solve", "--preset", "paper", "--n", "8", "--psi", "affine:-1e308,-1e308,-1e308"],
        *_REMOVED_FROM_THE_COMMAND_LINE,
    ],
)
@pytest.mark.filterwarnings("error")
def test_cli_usage_errors_exit_2(argv, capsys):
    if argv in _REMOVED_FROM_THE_COMMAND_LINE:
        # argparse refuses them: its usage line, then one error line
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        refusal = ("invalid choice: 'export'" if argv[0] == "export"
                   else "unrecognized arguments: --selector strict_only")
        assert refusal in err[-1]
        return
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


# Below assembly.ALPHA_MIN the unpivoted SuperLU block LU returns wrong
# steps, so no run starts there: one usage-error line, before any mesh.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, config",
    [
        (["solve", "--preset", "paper", "--n", "17", "--alpha", "1e-25"], None),
        (["solve", "--preset", "paper", "--n", "24", "--alpha", "1e-30"], None),
        (["solve", "--preset", "paper", "--n", "24", "--alpha", "1e-300"], None),
        (["sweep", "--preset", "paper", "--sizes", "8,16", "--alpha", "1e-21"], None),
        (["solve", "--preset", "paper", "--n", "8"], '{"alpha": 1e-21}'),
    ],
    ids=["alpha_1e-25", "alpha_1e-30", "alpha_1e-300", "sweep_alpha_1e-21", "config_alpha_1e-21"],
)
def test_cli_alpha_below_the_floor_is_a_usage_error_before_any_mesh(argv, config, tmp_path,
                                                                   monkeypatch, capsys):
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(cli, "build_friedrichs_keller", no_mesh)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("usage error: alpha must be finite and >= 1e-20, got ")


@pytest.mark.parametrize(
    "command, text",
    [
        ("solve", None),  # the config file does not exist
        ("solve", '{"alpha": 1e-5,'),
        ("solve", '{"max_iter": 2.5}'),
        ("solve", '{"n": 8.5}'),
        ("solve", '{"alpha": "1e-5"}'),
        ("sweep", '{"sizes": [16, "a"]}'),
        ("solve", '{"y_d": 5}'),
        ("solve", '{"max_iter": true}'),
        ("solve", '{"alpha": true}'),
        ("solve", '{"tol": false}'),
        ("solve", '{"alpah": 1e-6, "n": 8}'),  # a misspelt key is not ignored
        ("sweep", '{"sizes": [8], "large_size": 8}'),  # nor is one no command reads
        ("solve", '{"n": 8, "y_d": "affine:1e308,1e308,1e308"}'),
        ("sweep", '{"sizes": [8], "n": 64}'),  # a key of another command's flag
        ("solve", '{"n": 8, "sizes": [8]}'),
        ("solve", '{"n": 8, "selector_policy": "strict_only"}'),  # a removed key
    ],
    ids=[
        "missing", "malformed", "max_iter", "n", "alpha", "sizes", "y_d",
        "max_iter_bool", "alpha_bool", "tol_bool", "unknown_key", "large_size",
        "y_d_overflow", "sweep_n", "solve_sizes", "selector_policy",
    ],
)
@pytest.mark.filterwarnings("error")
def test_cli_bad_config_file_exit_2(command, text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main([command, "--preset", "paper", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


# A numeric warning printed to stderr would be a second line: make it fail.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, extra, pdas_cap, prefix",
    [
        # zeta vanishes at the initial guess I_h(y_D), so no node is active and
        # outer step 0 needs one PDAS iteration; the cap bites at step 1
        (8, [], 1, "error: outer iteration 1:"),
        # a finite y_D so large that P I_h y_D - P y overflows in zeta
        (8, ["--y-d", "const:1.7e308"], None, "error: outer iteration 0: zeta "),
        (8, ["--y-d", "affine:1.7e308,0,0"], None, "error: outer iteration 0: zeta "),
        # a finite y_D whose first residual overflows in the M-norm
        (8, ["--y-d", "const:1e160"], None, "error: outer iteration 0: residual inf "),
    ],
    ids=["pdas_cap", "y_d_const_1e308", "y_d_affine_1e308", "y_d_const_1e160"],
)
def test_cli_pdas_failure_is_one_error_line_exit_1(n, extra, pdas_cap, prefix, monkeypatch,
                                                    capsys):
    if pdas_cap is not None:
        monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", pdas_cap)
    assert main(["solve", "--preset", "paper", "--n", str(n), *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)


@pytest.mark.filterwarnings("error")
def test_cli_coarse_pdas_failure_is_one_error_line_exit_1(monkeypatch, capsys):
    # outer step 1 is the first warm start at n=32: its n=16 level starts
    # cold and hits the cap before the fine level is reached
    monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", 1)
    assert main(["solve", "--preset", "paper", "--n", "32"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: outer iteration 1: coarse level n=16: active set did not settle")


@pytest.mark.filterwarnings("error")
def test_cli_block_failure_below_the_pcg_cut_is_on_the_fine_level(monkeypatch, capsys):
    # alpha n_c^4 = 6.6e-6 at n_c = 16 is below NEWTON_PCG_ALPHA_N4, so the
    # fine block LU solves the step; the banded levels never call SuperLU,
    # so the singular factor is that of the fine block system
    monkeypatch.setattr(linalg, "_splu", singular_splu)
    assert main(["solve", "--preset", "paper", "--n", "32", "--alpha", "1e-10"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: outer iteration 0: Newton block system with |free| = 961: "
                   "Factor is exactly singular"]


@pytest.mark.filterwarnings("error")
def test_cli_pcg_at_its_cap_is_one_error_line_exit_1(monkeypatch, capsys):
    # a PCG that reaches its cap is a named failure, not a block LU solve
    monkeypatch.setattr(newton, "PCG_MAX_ITER", 1)
    assert main(["solve", "--preset", "paper", "--n", "32"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: outer iteration 0: Newton CG with |free| = ")


def test_cli_cg_failure_is_one_error_line_exit_1(monkeypatch, capsys):
    # every solver error, CG's included, is one line naming its outer iteration
    def fail(*args):
        raise CgNoConvergenceError("residual 1.000e+00 above 1.000e-12 after 2 iterations")

    monkeypatch.setattr(newton, "solve_newton_system", fail)
    assert main(["solve", "--preset", "paper", "--n", "8"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: outer iteration 0:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n, extra, patch, line",
    [
        # step 1 starts from step 0's active set, which is empty
        (8, [], (obstacle, "PDAS_MAX_ITER", 1),
         "error: outer iteration 1: level n=8: active set did not settle within 1 "
         "iterations; last iterate |free| = 49, |active| = 0"),
        # no node is active at step 0, and SuperLU factors the fine block
        # system of n = 32 at alpha = 1e-10 (see the test above)
        (32, ["--alpha", "1e-10"], (linalg, "_splu", singular_splu),
         "error: outer iteration 0: Newton block system with |free| = 961: "),
    ],
    ids=["pdas_cap", "zero_pivot"],
)
def test_cli_failure_line_names_the_set_sizes(n, extra, patch, line, monkeypatch, capsys):
    monkeypatch.setattr(*patch)
    assert main(["solve", "--preset", "paper", "--n", str(n), *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(line)


@pytest.mark.filterwarnings("error")
def test_cli_indefinite_stiffness_is_one_error_line_exit_1(monkeypatch, capsys):
    def negated_k_int(mesh):
        mats = build_matrices(mesh)
        mats.K_int = -mats.K_int
        return mats

    monkeypatch.setattr(cli, "build_matrices", negated_k_int)
    assert main(["solve", "--preset", "paper", "--n", "8"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: outer iteration 0: level n=8, K_int[free, free]")


def test_cli_sweep_large_appends_the_512_mesh(monkeypatch):
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return cli.SweepResult(rows=[])

    monkeypatch.setattr(cli, "run_sweep", record)
    assert main(["sweep", "--preset", "paper", "--sizes", "8,16", "--large"]) == 0
    assert len(calls) == 1 and calls[0]["sizes"] == [8, 16, 512]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "paper", "--n", "8"],
        ["sweep", "--preset", "paper", "--sizes", "8"],
        ["check", "--names", "contraction", "--trials", "2"],
    ],
    ids=["solve", "sweep", "check"],
)
def test_cli_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "f"
    assert main(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: cannot write {str(path)!r}")
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv, compute, out",
    [
        (["sweep", "--preset", "paper", "--sizes", "8"], "run_sweep", "missing/f"),
        (["solve", "--preset", "paper", "--n", "8"], "run_single", "missing/f"),
        (["sweep", "--preset", "paper", "--sizes", "8"], "run_sweep", "."),  # a directory
    ],
    ids=["sweep", "solve", "sweep_directory"],
)
def test_cli_unwritable_out_is_reported_before_the_compute(argv, compute, out, tmp_path,
                                                           monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError(f"{compute} ran before --out was checked")

    monkeypatch.setattr(cli, compute, fail)
    path = tmp_path / out
    assert main(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: cannot write {str(path)!r}")


@pytest.mark.parametrize(
    "argv, compute, prefix",
    [
        (["solve", "--preset", "paper", "--n", "8", "--out="], "run_single", "cannot write ''"),
        (["sweep", "--preset", "paper", "--sizes", "8", "--out="], "run_sweep", "cannot write ''"),
        (["check", "--names", "monotonicity", "--trials", "1", "--out="], "run_checks",
         "cannot write ''"),
        (["solve", "--preset", "paper", "--n", "8", "--config="], "run_single",
         "cannot read config ''"),
    ],
    ids=["solve", "sweep", "check", "config"],
)
def test_cli_empty_path_is_a_usage_error_before_the_compute(argv, compute, prefix, monkeypatch,
                                                            capsys):
    def fail(*args, **kwargs):
        raise AssertionError(f"{compute} ran with an empty path")

    monkeypatch.setattr(cli, compute, fail)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"usage error: {prefix}")


# Each settings flag with its config key, and three layers of values for
# each key: the flag's, a config file's and the paper preset's.
_FLAGS = {
    "alpha": "--alpha", "tol": "--tol", "max_iter": "--max-iter",
    "y_d": "--y-d", "psi": "--psi", "n": "--n", "sizes": "--sizes",
}
_FLAG_VALUES = {
    "alpha": 2e-5, "tol": 1e-6, "max_iter": 7,
    "y_d": "const:1", "psi": "const:-4", "n": 12, "sizes": [8, 12],
}
_FILE_VALUES = {
    "alpha": 3e-5, "tol": 1e-8, "max_iter": 9,
    "y_d": "const:2", "psi": "const:-3", "n": 10, "sizes": [10],
}


class _Solved(Exception):
    pass


@pytest.mark.parametrize("command, default_n", [("solve", 16), ("sweep", None)])
@pytest.mark.parametrize("layers", ["preset", "preset+file", "preset+flags", "preset+file+flags"])
def test_cli_each_settings_flag_reaches_its_setting(command, default_n, layers, tmp_path,
                                                    monkeypatch):
    keys = [k for k in _FLAGS if k != ("n" if command == "sweep" else "sizes")]
    argv = [command, "--preset", "paper", "--out", str(tmp_path / "out")]
    expected = {k: PAPER_PRESET[k] for k in keys if k != "n"}
    if command != "sweep":
        expected["n"] = default_n
    if "file" in layers:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: _FILE_VALUES[k] for k in keys}))
        argv += ["--config", str(cfg)]
        expected = {k: _FILE_VALUES[k] for k in keys}
    if "flags" in layers:
        for k in keys:
            v = _FLAG_VALUES[k]
            argv += [_FLAGS[k], ",".join(map(str, v)) if isinstance(v, list) else str(v)]
        expected = {k: _FLAG_VALUES[k] for k in keys}
    seen = []

    def solve(config, y_d, psi, n):
        seen.append({"alpha": config.alpha, "tol": config.tol, "max_iter": config.max_iter,
                     "y_d": y_d, "psi": psi, "n": n})
        raise _Solved

    def sweep(**kw):
        seen.append({"alpha": kw["alpha"], "tol": kw["tol"], "max_iter": kw["max_iter"],
                     "y_d": kw["y_d_spec"], "psi": kw["psi_spec"], "sizes": kw["sizes"]})
        return cli.SweepResult(rows=[])

    monkeypatch.setattr(cli, "run_single", solve)
    monkeypatch.setattr(cli, "run_sweep", sweep)
    if command == "sweep":
        assert main(argv) == 0
    else:
        with pytest.raises(_Solved):
            main(argv)
    assert seen == [expected]


def test_cli_sweep_takes_no_n(capsys):
    # sweep reads --sizes; an --n it would ignore is not accepted
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "paper", "--sizes", "8", "--n", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 64" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--n " not in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, config, code, line",
    [
        (["solve", "--preset", "paper"], "[1, 2]", 2,
         "usage error: config {cfg!r} must hold a JSON object"),
        (["solve", "--n", "8"], None, 2,
         "usage error: missing configuration value 'alpha' (use --preset paper or flags)"),
        (["sweep", "--preset", "paper", "--sizes", "8", "--max-iter", "1"], None, 1,
         "warning: some runs hit the iteration cap"),
    ],
    ids=["config_list", "no_preset", "iteration_cap"],
)
def test_cli_one_stderr_line(argv, config, code, line, tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", cfg]
    assert main(argv) == code
    assert capsys.readouterr().err == line.format(cfg=cfg) + "\n"


def test_cli_solve_vtk_matches_separately_interpolated_y_d(tmp_path):
    out = tmp_path / "solve.vtk"
    assert main(["solve", "--preset", "paper", "--n", "8", "--out", str(out)]) == 0
    mesh, mats, report = run_single(
        NewtonConfig(alpha=PAPER_PRESET["alpha"], tol=PAPER_PRESET["tol"]),
        PAPER_PRESET["y_d"], PAPER_PRESET["psi"], 8,
    )
    ref = tmp_path / "ref.vtk"
    export_fields(report, mats, str(ref))
    assert out.read_bytes() == ref.read_bytes()
    y_d = interpolate(parse_field(PAPER_PRESET["y_d"]), mesh).values
    assert np.array_equal(read_vtk(str(out))[2]["y_D"], y_d)


def test_cli_check_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check", "--names", "monotonicity,contraction", "--seed", "5",
        "--trials", "10", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [c["name"] for c in payload["checks"]] == ["monotonicity", "contraction"]
    assert all(c["passed"] for c in payload["checks"])


def test_cli_check_report_byte_identical(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["check", "--names", "monotonicity", "--seed", "5", "--trials", "5",
              "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--preset", "paper", "--sizes", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("h,iterations,final_residue")


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha": 1e-5, "tol": 1e-7, "y_d": "affine:0,-1,-1", "psi": "const:-5",
    }))
    code = main(["solve", "--config", str(cfg), "--n", "8", "--tol", "1e-5"])
    assert code == 0
    assert "converged" in capsys.readouterr().out
