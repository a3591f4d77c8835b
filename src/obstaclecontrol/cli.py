"""Experiment driver: single solves with optional VTK field export, the
mesh-independence sweep with EOC columns and the diagnostics suite.

Subcommands: solve, sweep, check.  The settings of solve and sweep
come from their flags, over the paper preset when --preset paper is
given.  Exit codes: 0 success, 1 convergence/check failure, 2 usage error.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .assembly import FEMatrices, NodalFunction, build_matrices, interpolate, vector_norm
from .diagnostics import (
    check_contraction,
    check_derivative_monotonicity,
    check_lipschitz_scaling,
    check_newton_differentiability,
    check_pointwise_convexity,
)
from .linalg import SolverError
from .mesh import Mesh, build_friedrichs_keller
from .newton import NewtonConfig, NewtonReport, run
from .obstacle import InfeasibleConstraintsError
from .operators import extend_interior

# The reference configuration of the mesh-independence study.  These
# constants live here and nowhere else.
PAPER_PRESET = {
    "alpha": 1e-5,
    "tol": 1e-7,
    "y_d": "affine:0,-1,-1",  # y_D(x1, x2) = -x1 - x2
    "psi": "const:-5",
    "sizes": [16, 32, 64, 128, 256],
    "max_iter": 50,
}


# The settings flags' dests.
CONFIG_KEYS = ("alpha", "tol", "max_iter", "y_d", "psi", "n", "sizes")


class UsageError(Exception):
    pass


def parse_field(spec: str):
    """Named scalar fields: 'const:c' or 'affine:a,b,c' for a + b*x1 + c*x2,
    finite on the unit square."""
    if not isinstance(spec, str):
        raise UsageError(f"field spec must be a string, got {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "const":
        try:
            c = float(arg)
        except ValueError as exc:
            raise UsageError(f"bad constant field {spec!r}") from exc
        if not math.isfinite(c):
            raise UsageError(f"constant of field {spec!r} is not finite")
        return lambda x1, x2: np.full_like(x1, c)
    if kind == "affine":
        try:
            a, b, c = (float(s) for s in arg.split(","))
        except ValueError as exc:
            raise UsageError(f"bad affine field {spec!r}, expected affine:a,b,c") from exc

        def field(x1, x2):
            return a + b * x1 + c * x2

        # an affine field takes its extremes at the corners of the square
        with np.errstate(over="ignore", invalid="ignore"):
            corners = field(np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))
        if not np.isfinite(corners).all():
            raise UsageError(f"field {spec!r} is not finite on the unit square")
        return field
    raise UsageError(f"unknown field kind {spec!r}; use const:c or affine:a,b,c")


def compute_eoc(history: list[np.ndarray], norm_kind: str, K, M):
    """Experimental order of convergence at the last iterate:
    log of the ratio of the last two consecutive-difference norms divided
    by the log of the previous ratio, in the norm of K and M.  Returns
    None when undefined."""
    if len(history) < 4:
        raise ValueError("EOC needs at least 4 iterates")
    tail = history[-4:]
    diffs = [
        vector_norm(tail[k + 1] - tail[k], norm_kind, K, M)
        for k in range(3)
    ]
    if any(d == 0.0 for d in diffs):
        return None
    denom = math.log(diffs[1] / diffs[0])
    if denom == 0.0:
        return None
    return math.log(diffs[2] / diffs[1]) / denom


@dataclass
class SweepRow:
    h: float
    iterations: int
    final_residue: float
    eoc_l2_y: float | None
    eoc_h1_ytilde: float | None
    eoc_h10_u: float | None
    status: str


@dataclass
class SweepResult:
    rows: list[SweepRow]


_SWEEP_COLUMNS = ["h", "iterations", "final_residue", "eoc_l2_y", "eoc_h1_ytilde", "eoc_h10_u"]


def _sweep_cells(r: SweepRow) -> list[str]:
    """The _SWEEP_COLUMNS values of one row, as written to CSV and stdout;
    an undefined EOC is an empty cell."""
    eocs = (r.eoc_l2_y, r.eoc_h1_ytilde, r.eoc_h10_u)
    return [repr(r.h), str(r.iterations), repr(r.final_residue)] + [
        "" if x is None else repr(float(x)) for x in eocs
    ]


def run_single(config: NewtonConfig, y_d_spec: str, psi_spec: str, n: int):
    mesh = build_friedrichs_keller(n)
    mats = build_matrices(mesh)
    report = run(config, parse_field(y_d_spec), parse_field(psi_spec), mesh, mats)
    return mesh, mats, report


def _sweep_run(config: NewtonConfig, y_d_spec: str, psi_spec: str, n: int):
    """run_single without the FEMatrices, whose factors and coarse levels
    the rows do not need: the mesh, the report, and K and M for the norms."""
    mesh, mats, report = run_single(config, y_d_spec, psi_spec, n)
    return mesh, report, mats.K, mats.M


def run_sweep(
    alpha: float,
    tol: float,
    y_d_spec: str,
    psi_spec: str,
    sizes,
    max_iter: int = NewtonConfig.max_iter,
    out_csv: str | None = None,
) -> SweepResult:
    if not sizes:
        raise UsageError("sweep needs at least one mesh size")
    if len(set(sizes)) < len(sizes):
        raise UsageError(f"sweep mesh sizes must be distinct, got {sorted(sizes)}")
    config = NewtonConfig(alpha=alpha, tol=tol, max_iter=max_iter)
    runs = [_sweep_run(config, y_d_spec, psi_spec, n) for n in sorted(sizes)]
    # EOCs are evaluated at the largest iteration index reached in every
    # run of the sweep, so the difference quotients compare like with like
    common = min(report.iterations for _, report, _, _ in runs)
    rows = []
    for mesh, report, K, M in runs:
        history = report.history[: common + 1]
        ys = [rec.y for rec in history]
        yts = [rec.ytilde for rec in history]
        us = [np.zeros(mesh.num_nodes) for _ in history]
        for u, rec in zip(us, history):
            u[mesh.interior] = rec.u
        has_eoc = len(history) >= 4
        rows.append(
            SweepRow(
                h=mesh.h,
                iterations=report.iterations,
                final_residue=report.residuals[-1],
                eoc_l2_y=compute_eoc(ys, "L2", K, M) if has_eoc else None,
                eoc_h1_ytilde=compute_eoc(yts, "H1", K, M) if has_eoc else None,
                eoc_h10_u=compute_eoc(us, "H1_semi", K, M) if has_eoc else None,
                status=report.status,
            )
        )
    result = SweepResult(rows=rows)
    if out_csv is not None:
        write_sweep_csv(result, out_csv)
    return result


def _open_out(path: str, newline: str | None = None):
    """path opened for writing; a path that cannot be written is a usage error."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from exc


def _check_out_dir(path: str):
    """A usage error, raised before any compute, when path is empty or a
    directory or its directory is missing or not writable; _open_out
    checks the rest."""
    if not path:
        raise UsageError("cannot write '': the path is empty")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path!r}: Is a directory")
    parent = os.path.dirname(path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise UsageError(f"cannot write {path!r}: {parent!r} is not a writable directory")


def write_sweep_csv(result: SweepResult, path: str):
    """Six fixed columns; a status column is appended only when some run
    failed to converge, keeping the green-path header exact."""
    any_failed = any(r.status != "converged" for r in result.rows)
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS + (["status"] if any_failed else []))
        for r in result.rows:
            writer.writerow(_sweep_cells(r) + ([r.status] if any_failed else []))


def export_fields(report: NewtonReport, mats: FEMatrices, path: str):
    """Write the desired state, final state, control and multiplier as
    point scalars of a legacy ASCII VTK unstructured grid; u and lambda
    are zero on the boundary."""
    fields = {
        "y_D": report.y_d,
        "y_tilde": report.ytilde,
        "u": extend_interior(report.u, mats),
        "lambda": extend_interior(report.final_solution.lam, mats),
    }
    write_vtk(mats.mesh, fields, path)


def write_vtk(mesh: Mesh, fields: dict, path: str):
    nt = mesh.num_triangles
    lines = [
        "# vtk DataFile Version 3.0",
        "obstaclecontrol fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    for x, y in mesh.nodes:
        lines.append(f"{float(x)!r} {float(y)!r} 0.0")
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"POINT_DATA {mesh.num_nodes}")
    for name, values in fields.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(repr(float(v)) for v in values)
    with _open_out(path) as fh:
        fh.write("\n".join(lines) + "\n")


class RegisteredCheck(NamedTuple):
    run: Callable  # run(seed, **kwargs) -> CheckReport
    takes_trials: bool = True


def _mesh_and_mats(n: int):
    mesh = build_friedrichs_keller(n)
    return mesh, build_matrices(mesh)


def registered_checks() -> dict:
    """The diagnostics suite: check name -> runner with its mesh size
    and arguments.  newton_diff runs a fixed ladder of scales around the
    converged paper solution, so it takes no trial count."""
    alpha = PAPER_PRESET["alpha"]
    return {
        "convexity": RegisteredCheck(
            lambda seed, **kw: check_pointwise_convexity(*_mesh_and_mats(16), seed=seed, **kw)
        ),
        "monotonicity": RegisteredCheck(
            lambda seed, **kw: check_derivative_monotonicity(*_mesh_and_mats(8), seed=seed, **kw)
        ),
        "newton_diff": RegisteredCheck(
            lambda seed: check_newton_differentiability(*paper_converged_zeta(16), seed=seed),
            takes_trials=False,
        ),
        "contraction": RegisteredCheck(
            lambda seed, **kw: check_contraction(*_mesh_and_mats(8), seed=seed, alpha=alpha, **kw)
        ),
        "lipschitz": RegisteredCheck(
            lambda seed, **kw: check_lipschitz_scaling(seed=seed, **kw)
        ),
    }


def run_checks(names, seed: int, out_path: str | None, trials: int | None = None) -> int:
    registry = registered_checks()
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise UsageError(
            f"unknown check(s) {unknown}; registered: {sorted(registry)}"
        )
    if len(set(names)) < len(names):
        raise UsageError(f"check names must be distinct, got {list(names)}")
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    kwargs = {}
    if trials is not None:
        if trials < 1:
            raise UsageError("trials must be at least 1")
        fixed = [n for n in names if not registry[n].takes_trials]
        if fixed:
            raise UsageError(f"check(s) {fixed} take no --trials")
        kwargs["trials"] = trials
    reports = [registry[name].run(seed, **kwargs) for name in names]
    payload = {"seed": seed, "checks": [r.as_dict() for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path is not None:
        with _open_out(out_path) as fh:
            fh.write(text + "\n")
    for r in reports:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
              f"(max violation {r.max_violation:.3e}, tol {r.tolerance:.3e})")
    return 0 if all(r.passed for r in reports) else 1


def paper_converged_zeta(n: int):
    """Mesh, matrices, converged adjoint field and obstacle of the
    reference configuration; base point for the semismoothness check."""
    p = PAPER_PRESET
    mesh, mats, report = run_single(_newton_config(p), p["y_d"], p["psi"], n)
    psi = interpolate(parse_field(p["psi"]), mesh)
    return mesh, mats, NodalFunction(report.zeta, mesh), psi


def _load_config(args) -> dict:
    """The settings of solve and sweep: each given flag, whose dest is
    its key in CONFIG_KEYS, over the preset."""
    preset = PAPER_PRESET if args.preset == "paper" else {}
    given = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    return {**preset, **{key: val for key, val in given.items() if val is not None}}


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"missing configuration value {key!r} (use --preset paper or flags)")
    return cfg[key]


def _newton_config(cfg: dict) -> NewtonConfig:
    try:
        return NewtonConfig(alpha=_require(cfg, "alpha"), tol=_require(cfg, "tol"),
                            max_iter=cfg.get("max_iter", NewtonConfig.max_iter))
    except ValueError as exc:  # NewtonConfig validates its fields
        raise UsageError(str(exc)) from exc


def _parse_sizes(text: str) -> list[int]:
    # argparse turns only ArgumentTypeError, TypeError and ValueError into
    # its own two-line error; a UsageError reaches main as one line
    try:
        return [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes {text!r}, expected integers like 16,32") from exc


def _check_mesh_sizes(sizes):
    if not all(n >= 2 for n in sizes):
        raise UsageError(f"mesh sizes must be at least 2, got {sizes!r}")


def _cmd_solve(args) -> int:
    """config -> NewtonConfig -> run_single at n (default 16) -> VTK
    export of the fields when --out is given."""
    cfg = _load_config(args)
    n = cfg.get("n", 16)
    _check_mesh_sizes([n])
    config = _newton_config(cfg)
    mesh, mats, report = run_single(config, _require(cfg, "y_d"), _require(cfg, "psi"), n)
    print(f"n={n} h={mesh.h} status={report.status} iterations={report.iterations} "
          f"final_residue={report.residuals[-1]:.4e}")
    if args.out is not None:
        export_fields(report, mats, args.out)
        print(f"fields written to {args.out}")
    return 0 if report.status == "converged" else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sizes = _require(cfg, "sizes")
    _check_mesh_sizes(sizes)
    config = _newton_config(cfg)
    result = run_sweep(
        alpha=config.alpha,
        tol=config.tol,
        y_d_spec=_require(cfg, "y_d"),
        psi_spec=_require(cfg, "psi"),
        sizes=sizes,
        max_iter=config.max_iter,
        out_csv=args.out,
    )
    print(",".join(_SWEEP_COLUMNS))
    for r in result.rows:
        print(",".join(_sweep_cells(r)))
    failed = any(r.status != "converged" for r in result.rows)
    if failed:
        print("warning: some runs hit the iteration cap", file=sys.stderr)
    return 1 if failed else 0


def _cmd_check(args) -> int:
    # an empty --names= lists one empty name, which run_checks rejects
    names = args.names.split(",") if args.names is not None else sorted(registered_checks())
    return run_checks(names, seed=args.seed, out_path=args.out, trials=args.trials)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstaclecontrol",
        description="Semismooth Newton solver for obstacle-constrained optimal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", choices=["paper"], help="named configuration preset")
        p.add_argument("--alpha", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--y-d", dest="y_d", help="field spec, e.g. affine:0,-1,-1")
        p.add_argument("--psi", help="field spec, e.g. const:-5")

    p_solve = sub.add_parser("solve", help="single Newton run")
    common(p_solve)
    p_solve.add_argument("--n", type=int, help="subdivisions per side")
    p_solve.add_argument("--out", help="optional VTK output path")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="mesh-independence study with EOC columns")
    common(p_sweep)
    p_sweep.add_argument("--sizes", type=_parse_sizes, help="comma-separated mesh sizes")
    p_sweep.add_argument("--out", help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run diagnostics checks")
    p_check.add_argument("--names", help="comma-separated check names (default: all)")
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--trials", type=int)
    p_check.add_argument("--out", help="JSON report path")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out is not None:
            _check_out_dir(args.out)
        return args.func(args)
    except (UsageError, InfeasibleConstraintsError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
