import json
import math

import numpy as np
import pytest

from obstaclecontrol import obstacle
from obstaclecontrol.assembly import interpolate
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
from obstaclecontrol.newton import NewtonConfig

from conftest import mesh_and_mats, read_vtk


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
    assert compute_eoc(history, "L2", mats) == pytest.approx(2.0, abs=1e-10)


def test_eoc_linear_history():
    mesh, mats = mesh_and_mats(4)
    history = _history_from_diffs(mesh, [0.5, 0.5**2, 0.5**3])
    assert compute_eoc(history, "L2", mats) == pytest.approx(1.0, abs=1e-10)


def test_eoc_needs_four_iterates():
    mesh, mats = mesh_and_mats(4)
    with pytest.raises(ValueError):
        compute_eoc([np.zeros(mesh.num_nodes)] * 3, "L2", mats)


def test_eoc_zero_difference_reported_absent():
    mesh, mats = mesh_and_mats(4)
    v = np.ones(mesh.num_nodes)
    assert compute_eoc([v, v, v, v], "L2", mats) is None


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
    mesh, mats, report = run_single(config, "affine:0,-1,-1", "const:-5", 16)
    path = tmp_path / "run.vtk"
    y_d = parse_field("affine:0,-1,-1")(mesh.nodes[:, 0], mesh.nodes[:, 1])
    export_fields(report, mesh, str(path), y_d)
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


def test_cli_check_zero_trials(capsys):
    code = main(["check", "--names", "convexity", "--trials", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--preset", "paper", "--alpha", "-1"],
        ["solve", "--preset", "paper", "--n", "1"],
        ["solve", "--preset", "paper", "--max-iter", "0"],
        ["solve", "--preset", "paper", "--n", "8", "--psi", "const:1"],
        ["sweep", "--preset", "paper", "--sizes", "1"],
        ["export", "--preset", "paper", "--n", "1"],
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
    ],
)
def test_cli_usage_errors_exit_2(argv, tmp_path, capsys):
    if argv[0] == "export":
        argv = argv + ["--out", str(tmp_path / "never.vtk")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


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
    ],
    ids=[
        "missing", "malformed", "max_iter", "n", "alpha", "sizes", "y_d",
        "max_iter_bool", "alpha_bool", "tol_bool",
    ],
)
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
    "extra, pdas_cap, prefix",
    [
        # zeta vanishes at the initial guess I_h(y_D), so no node is active and
        # outer step 0 needs one PDAS iteration; the cap bites at step 1
        ([], 1, "error: outer iteration 1:"),
        # the iterates diverge until their norms overflow to inf and NaN
        (["--alpha", "1e-25"], None, "error: outer iteration "),
        # the first step is longer than its right-hand side
        (["--alpha", "1e-30"], None, "error: outer iteration 0:"),
        # SuperLU meets an exactly zero pivot in the block system
        (["--alpha", "1e-300"], None, "error: outer iteration 0:"),
    ],
    ids=["pdas_cap", "alpha_1e-25", "alpha_1e-30", "alpha_1e-300"],
)
def test_cli_pdas_failure_is_one_error_line_exit_1(extra, pdas_cap, prefix, monkeypatch, capsys):
    if pdas_cap is not None:
        monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", pdas_cap)
    assert main(["solve", "--preset", "paper", "--n", "8", *extra]) == 1
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
@pytest.mark.parametrize(
    "extra, pdas_cap, line",
    [
        # step 1 starts from step 0's active set, which is empty
        ([], 1, "error: outer iteration 1: level n=8: active set did not settle within 1 "
                "iterations; last iterate |free| = 49, |active| = 0"),
        (["--alpha", "1e-300"], None, "error: outer iteration 0: Newton block system with "
                                      "|free| = 49: "),
    ],
    ids=["pdas_cap", "zero_pivot"],
)
def test_cli_failure_line_names_the_set_sizes(extra, pdas_cap, line, monkeypatch, capsys):
    if pdas_cap is not None:
        monkeypatch.setattr(obstacle, "PDAS_MAX_ITER", pdas_cap)
    assert main(["solve", "--preset", "paper", "--n", "8", *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(line)


def test_cli_solve_vtk_matches_separately_interpolated_y_d(tmp_path):
    out = tmp_path / "solve.vtk"
    assert main(["solve", "--preset", "paper", "--n", "8", "--out", str(out)]) == 0
    mesh, _, report = run_single(
        NewtonConfig(alpha=PAPER_PRESET["alpha"], tol=PAPER_PRESET["tol"]),
        PAPER_PRESET["y_d"], PAPER_PRESET["psi"], 8,
    )
    ref = tmp_path / "ref.vtk"
    y_d = interpolate(parse_field(PAPER_PRESET["y_d"]), mesh).values
    export_fields(report, mesh, str(ref), y_d)
    assert out.read_bytes() == ref.read_bytes()


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


def test_cli_export(tmp_path):
    out = tmp_path / "e.vtk"
    code = main(["export", "--preset", "paper", "--n", "8", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "alpha": 1e-5, "tol": 1e-7, "y_d": "affine:0,-1,-1", "psi": "const:-5",
    }))
    code = main(["solve", "--config", str(cfg), "--n", "8", "--tol", "1e-5"])
    assert code == 0
    assert "converged" in capsys.readouterr().out
