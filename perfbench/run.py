"""Benchmark of the obstaclecontrol solver on three workloads.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from
./src, never from an installed copy.  One run is one process with every
BLAS/OpenMP pool pinned to one thread.  It sets the package up, then
repeats the workload's unit of work while the next unit is expected to
end within --seconds (at least one unit), timing each step of a unit
and one more set-up after each unit, checks every answer, and prints
one JSON object as the last line of standard output.  Each timed
sample is divided by the time of a fixed reference kernel run just
before and just after it (see Reference).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 the package is wrapped by
spans.Tracer and it reports the per-layer metrics.  Each run also
writes a result file with its provenance to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import contextlib
import datetime
import functools
import gc
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg  # imported before set-up, which excludes its import time

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = spans.PACKAGE
MODULES = ("mesh", "assembly", "linalg", "obstacle", "operators", "newton", "diagnostics", "cli")

# The paper's reference configuration, fixed here so that the benchmark
# inputs do not follow edits to the package's presets.
PAPER = {"alpha": 1e-5, "tol": 1e-7, "y_d": "affine:0,-1,-1", "psi": "const:-5", "max_iter": 50}
# Table 1 up to n = 64: one n = 128 solve takes about 15 s, too long to
# be repeated often enough in a run for a steady time.
PAPER_SIZES = (16, 32, 64)
PAPER_ITERATIONS = {16: 6, 32: 6, 64: 6}
PAPER_L2_EOC = 1.8745  # L2 EOC of the finest mesh, +-0.25
SMALL_ALPHAS = (1e-6, 1e-7, 1e-8)
SMALL_ALPHA_N = 32
CHECK_NAMES = ("convexity", "monotonicity", "newton_diff", "contraction", "lipschitz")

OK, UNCONVERGED, FAILED = "ok", "unconverged", "failed"


def _paper_row_problems(n, row) -> list:
    if row is None:
        return ["no sweep row"]
    problems = []
    if row.status != "converged":
        problems.append(f"status {row.status}")
    if not row.final_residue <= PAPER["tol"]:
        problems.append(f"residue {row.final_residue:.3e}")
    if abs(row.iterations - PAPER_ITERATIONS[n]) > 1:
        problems.append(f"{row.iterations} iterations, expected {PAPER_ITERATIONS[n]}+-1")
    if n >= 32 and not all(e is not None and e >= 1.5 for e in (row.eoc_h1_ytilde, row.eoc_h10_u)):
        problems.append(f"EOCs {row.eoc_h1_ytilde}, {row.eoc_h10_u} below 1.5")
    if n == max(PAPER_SIZES) and not (
        row.eoc_l2_y is not None and abs(row.eoc_l2_y - PAPER_L2_EOC) <= 0.25
    ):
        problems.append(f"L2 EOC {row.eoc_l2_y}")
    return problems


def paper_sweep(pkg, seed, unit):
    result = pkg.cli.run_sweep(
        alpha=PAPER["alpha"],
        tol=PAPER["tol"],
        y_d_spec=PAPER["y_d"],
        psi_spec=PAPER["psi"],
        sizes=list(PAPER_SIZES),
        max_iter=PAPER["max_iter"],
    )
    rows = {round(1 / r.h): r for r in result.rows}
    ops = []
    for n in PAPER_SIZES:
        problems = _paper_row_problems(n, rows.get(n))
        ops.append((f"n={n}", FAILED if problems else OK, "; ".join(problems)))
    return ops


def _small_alpha_solve(pkg, alpha):
    mesh = pkg.mesh.build_friedrichs_keller(SMALL_ALPHA_N)
    mats = pkg.assembly.build_matrices(mesh)
    config = pkg.newton.NewtonConfig(alpha=alpha, tol=PAPER["tol"], max_iter=PAPER["max_iter"])
    report = pkg.newton.run(
        config, lambda x1, x2: -x1 - x2, lambda x1, x2: np.full_like(x1, -5.0), mesh, mats
    )
    residue = report.residuals[-1]
    detail = f"{report.status} after {report.iterations} iterations, residue {residue:.3e}"
    converged = residue <= config.tol
    if (report.status == "converged") != converged:
        return FAILED, "status contradicts residue: " + detail
    return (OK if converged else UNCONVERGED), detail


def small_alpha(pkg, seed, unit, alpha):
    outcome, detail = _small_alpha_solve(pkg, alpha)
    return [(f"alpha={alpha:g}", outcome, detail)]


def check(pkg, seed, unit, name):
    path = OUT / "checks-report.json"
    pkg.cli.run_checks([name], seed=(seed % 2**32) * 100_000 + unit, out_path=str(path))
    reports = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    report = reports.get(name)
    if report is None:
        return [(name, FAILED, "no report")]
    detail = f"max violation {report['max_violation']:.3e}, tolerance {report['tolerance']:.3e}"
    return [(name, OK if report["passed"] is True else FAILED, detail)]


@dataclass(frozen=True)
class Step:
    name: str
    labels: tuple  # operations the step checks, all failed if it raises
    run: Callable  # (pkg, seed, unit index) -> [(label, outcome, detail)]


@dataclass(frozen=True)
class Workload:
    steps: tuple  # one unit of work, timed step by step
    meshes: tuple  # mesh sizes one unit builds, built again in set-up


WORKLOADS = {
    "paper_sweep": Workload(
        (Step("sweep", tuple(f"n={n}" for n in PAPER_SIZES), paper_sweep),), PAPER_SIZES
    ),
    "small_alpha": Workload(
        tuple(
            Step(f"alpha={a:g}", (f"alpha={a:g}",), functools.partial(small_alpha, alpha=a))
            for a in SMALL_ALPHAS
        ),
        (SMALL_ALPHA_N,) * len(SMALL_ALPHAS),
    ),
    # convexity 16, monotonicity 8, contraction 8, newton_diff 16, lipschitz 8/16/32
    "checks": Workload(
        tuple(Step(name, (name,), functools.partial(check, name=name)) for name in CHECK_NAMES),
        (16, 8, 8, 16, 8, 16, 32),
    ),
}


def _package_modules():
    return {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}


def import_package():
    """Import the package afresh from this checkout's src/."""
    for key in _package_modules():
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError as exc:
            warnings.warn(f"{PACKAGE}.{name} not importable: {exc}")
    return SimpleNamespace(**modules)


def set_up(meshes):
    """Import the package afresh and build every Mesh and FEMatrices of
    one unit; returns the package and the time taken.  numpy and scipy
    are imported with this module, so their import time is not part of
    it."""
    start = time.perf_counter()
    pkg = import_package()
    for n in meshes:
        pkg.assembly.build_matrices(pkg.mesh.build_friedrichs_keller(n))
    return pkg, time.perf_counter() - start


def time_set_up(meshes):
    """Time set_up once more, then put back the modules the run uses.
    The objects the run has made so far are frozen out of the garbage
    collector meanwhile, so that its passes cost what they would in a
    fresh process."""
    kept = _package_modules()
    gc.collect()
    gc.freeze()
    try:
        return set_up(meshes)[1]
    finally:
        gc.unfreeze()
        for key in _package_modules():
            del sys.modules[key]
        sys.modules.update(kept)


class Reference:
    """A fixed kernel of the two kinds of work the package does: a
    SuperLU factorization and solve of the 5-point Laplacian on a 40x40
    grid, and a loop of Python arithmetic.  It is not part of the
    package, so no change to the package moves its time.

    The machine is shared, and other load slows everything that runs on
    it by up to 40 %, for seconds or for minutes at a time.  The
    reference kernel slows by the same factor, so a sample divided by
    the mean of the reference times just before and just after it
    keeps what the program did and drops how busy the machine was."""

    GRID = 40
    LOOP = 20_000
    SECONDS = 0.005  # nominal time of one kernel run: the unit of the reported times

    def __init__(self):
        tri = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(self.GRID, self.GRID))
        eye = scipy.sparse.eye(self.GRID)
        self.matrix = (scipy.sparse.kron(eye, tri) + scipy.sparse.kron(tri, eye)).tocsc()
        self.rhs = np.ones(self.GRID**2)
        for _ in range(5):  # warm-up
            self.time()

    def time(self):
        """(wall, cpu) seconds of one kernel run."""
        wall, cpu = time.perf_counter(), time.process_time()
        scipy.sparse.linalg.splu(self.matrix).solve(self.rhs)
        total = 0
        for i in range(self.LOOP):
            total += i * i
        return time.perf_counter() - wall, time.process_time() - cpu


def _sample(wall, cpu, before, after):
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_wall_s": (before[0] + after[0]) / 2,
        "ref_cpu_s": (before[1] + after[1]) / 2,
    }


def measure(workload, pkg, seed, seconds, tracer):
    """Run units until the next one is expected to end after `seconds`.
    Each step, and one more set-up after each unit, is timed between
    two runs of the reference kernel."""
    ref = Reference()
    units = []
    begin = time.perf_counter()
    before = ref.time()
    while True:
        start = time.perf_counter()
        tracer.op = len(units)
        steps, ops = {}, []
        for step in workload.steps:
            wall, cpu = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(sys.stderr):
                try:
                    ops += step.run(pkg, seed, len(units))
                except Exception as exc:
                    traceback.print_exc()
                    ops += [(label, FAILED, repr(exc)) for label in step.labels]
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            after = ref.time()
            steps[step.name] = _sample(wall, cpu, before, after)
            before = after
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_wall = time_set_up(workload.meshes)
        after = ref.time()
        units.append({
            "steps": steps,
            "setup": {"wall_s": setup_wall, "ref_wall_s": (before[0] + after[0]) / 2},
            "peak_rss_mb": peak,
            "ops": ops,
            "elapsed_s": time.perf_counter() - start,
        })
        before = after
        typical = statistics.median(u["elapsed_s"] for u in units)
        if time.perf_counter() - begin + typical > seconds:
            return units


def in_reference_seconds(samples, key):
    """Median over a run of a sample's time divided by its reference
    time, in units of Reference.SECONDS."""
    return Reference.SECONDS * statistics.median(s[key] / s["ref_" + key] for s in samples)


def unit_time(workload, units, key):
    """Time of one unit: the steps' times in reference seconds, summed."""
    return sum(
        in_reference_seconds([u["steps"][s.name] for u in units], key) for s in workload.steps
    )


def newton_iterations(tracer, units):
    per_unit = [0] * len(units)
    for rec in tracer.spans:
        if rec[spans.NAME] == "newton.run":
            per_unit[rec[spans.OP]] += rec[spans.ATTRS].get("iterations", 0)
    return per_unit


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository;
    git is kept from searching the directories above it."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, units, missing):
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "units": len(units),
        "measured_s": sum(u["elapsed_s"] for u in units),
        "missing_targets": missing,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {SRC / PACKAGE}; run from a checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    pkg, _ = set_up(workload.meshes)  # compiles and caches; timed again after each unit
    if args.trace:
        tracer = spans.Tracer()
    else:  # newton.run only, to count outer iterations
        tracer = spans.Tracer([t for t in spans.TARGETS if t[2] == "newton.run"])
    missing = tracer.install()
    try:
        units = measure(workload, pkg, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()

    ops = [op for u in units for op in u["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if op[1] == FAILED)
    ok = sum(1 for op in ops if op[1] == OK)
    wall_s = unit_time(workload, units, "wall_s")
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, len(units))
        metrics["bench.traced_wall_s"] = metric(wall_s, "s")
        metrics["bench.failed_ops"] = metric((attempted - ok) / attempted, "ratio")
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "cpu_s": metric(unit_time(workload, units, "cpu_s"), "s"),
            "setup_s": metric(in_reference_seconds([u["setup"] for u in units], "wall_s"), "s"),
            # after the first unit: later units only add heap fragmentation
            "peak_rss_mb": metric(units[0]["peak_rss_mb"], "MB"),
            "newton_iterations": metric(statistics.median(newton_iterations(tracer, units)), "count"),
            "ok_ops": metric(ok / attempted, "ratio"),
        }

    stem = f"{args.workload}-seed{args.seed}"
    record = {
        "provenance": provenance(args, units, missing),
        "metrics": metrics,
        "units": [{**u, "ops": [list(op) for op in u["ops"]]} for u in units],
    }
    if args.trace:
        untraced = OUT / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["metrics"]["wall_s"]["value"]
            record["tracing_overhead_s"] = wall_s - base
        with open(OUT / f"{stem}.trace.jsonl", "w") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
