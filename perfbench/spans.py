"""Span tracing of the obstaclecontrol package from outside it.

The package imports its own functions with ``from .x import y``, so a
function has one binding in its defining module and one more in every
module that imports it.  ``Tracer.install`` replaces each of those
bindings with a wrapper that records a span (name, start, end, parent
span, operation id) and a few attributes read from the arguments or the
returned object.  Methods are wrapped once, on their class.

A target that no longer exists is reported, not fatal: its spans are
simply absent and the metrics built from them read 0.
"""

import functools
import sys
import time
import warnings
from collections import defaultdict

PACKAGE = "obstaclecontrol"

# Mesh sizes at which the workloads run Newton solves; one
# newton.*.n<N> metric each.
NEWTON_SIZES = (16, 32, 64)

# Check function -> report name, as registered in diagnostics.
CHECKS = {
    "check_pointwise_convexity": "convexity",
    "check_derivative_monotonicity": "monotonicity",
    "check_newton_differentiability": "newton_diff",
    "check_contraction": "contraction",
    "check_lipschitz_scaling": "lipschitz",
}

NAME, START, END, PARENT, OP, CHILD, ATTRS = range(7)


def _factorization_attrs(args, kwargs, result, attrs):
    fact = args[0]
    attrs["size"] = int(fact.shape[0])
    lu = getattr(fact, "_lu", None)
    attrs["fill"] = 0 if lu is None else int(lu.L.nnz + lu.U.nnz)


def _count_operator_applies(args, kwargs, attrs):
    """Count the calls of the operator passed to CG as first argument."""
    attrs["applies"] = 0
    if not args or not callable(args[0]):
        return args, kwargs
    apply_op = args[0]

    def counted(v):
        attrs["applies"] += 1
        return apply_op(v)

    return (counted, *args[1:]), kwargs


def _obstacle_attrs(args, kwargs, result, attrs):
    attrs["pdas"] = int(result.pdas_iterations)


def _newton_attrs(args, kwargs, result, attrs):
    mesh = kwargs["mesh"] if "mesh" in kwargs else args[3]
    attrs["n"] = int(mesh.n)
    attrs["iterations"] = int(result.iterations)


def _check_attrs(args, kwargs, result, attrs):
    attrs["passed"] = bool(result.passed)


# (module, attribute or Class.method, span name, before hook, after hook)
TARGETS = [
    ("mesh", "build_friedrichs_keller", "mesh.build", None, None),
    ("assembly", "build_matrices", "assembly.build_matrices", None, None),
    ("assembly", "vector_norm", "assembly.vector_norm", None, None),
    ("linalg", "Factorization.__init__", "linalg.factorize", None, _factorization_attrs),
    ("linalg", "Factorization.solve", "linalg.fact_solve", None, None),
    ("linalg", "solve_block_newton", "linalg.block_newton", None, None),
    ("linalg", "cg_self_adjoint", "linalg.cg", _count_operator_applies, None),
    ("obstacle", "solve_obstacle", "obstacle.solve", None, _obstacle_attrs),
    ("operators", "apply_P", "operators.apply_P", None, None),
    ("operators", "apply_G", "operators.apply_G", None, None),
    ("newton", "run", "newton.run", None, _newton_attrs),
    *[
        ("diagnostics", fn, f"diagnostics.check.{name}", None, _check_attrs)
        for fn, name in CHECKS.items()
    ],
    ("cli", "run_sweep", "cli.run_sweep", None, None),
    ("cli", "compute_eoc", "cli.compute_eoc", None, None),
]


class Tracer:
    """Collects spans in memory while installed.  ``op`` is the id of
    the benchmark operation in progress; spans record it."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.stack = []
        self.op = 0
        self.origin = time.perf_counter()
        self._undo = []
        self._broken_hooks = set()

    def _wrap(self, name, fn, before, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, attrs]
            stack.append(len(spans))
            spans.append(rec)
            if before is not None:
                args, kwargs = before(args, kwargs, attrs)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["raised"] = True
                raise
            finally:
                rec[END] = end = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += end - rec[START]
            if after is not None:
                try:
                    after(args, kwargs, result, attrs)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    if name not in self._broken_hooks:
                        self._broken_hooks.add(name)
                        warnings.warn(f"span {name}: attributes unavailable ({exc!r})")
            return result

        return wrapper

    def install(self) -> list:
        """Wrap every target at every binding in the loaded package.
        Returns the targets that could not be found."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        missing = []
        for modname, attr, name, before, after in self.targets:
            defining = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(defining, owner_name, None) if owner_name else defining
            original = getattr(owner, member, None) if owner is not None else None
            if not callable(original):
                missing.append(f"{PACKAGE}.{modname}.{attr}")
                continue
            wrapped = self._wrap(name, original, before, after)
            if owner_name:
                self._undo.append((owner, member, owner.__dict__[member]))
                setattr(owner, member, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        for target in missing:
            warnings.warn(f"{target} not found; its spans and metrics are absent")
        return missing

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def records(self):
        """Spans as dicts, times in seconds since the tracer was made."""
        for rec in self.spans:
            yield {
                "name": rec[NAME],
                "start": rec[START] - self.origin,
                "end": rec[END] - self.origin,
                "parent": rec[PARENT],
                "op": rec[OP],
                "self": rec[END] - rec[START] - rec[CHILD],
                **rec[ATTRS],
            }


def layer_metrics(spans, units: int) -> dict:
    """Per-layer metrics from recorded spans.  Counts and seconds are per
    workload unit (averaged over ``units``); ratios and maxima are over
    the whole run."""
    u = max(units, 1)
    by_name = defaultdict(list)
    run_of = []  # index of the enclosing newton.run span, or -1
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(rec)
        if rec[NAME] == "newton.run":
            run_of.append(i)
        else:
            run_of.append(run_of[rec[PARENT]] if rec[PARENT] >= 0 else -1)

    def dur(recs):
        return sum(r[END] - r[START] for r in recs)

    def self_time(recs):
        return sum(r[END] - r[START] - r[CHILD] for r in recs)

    def attr_sum(recs, key):
        return sum(r[ATTRS].get(key, 0) for r in recs)

    def under(child, parent):
        return [r for r in by_name[child] if r[PARENT] >= 0 and spans[r[PARENT]][NAME] == parent]

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    def calls_and_time(prefix, name):
        put(f"{prefix}.calls", len(by_name[name]) / u, "count")
        put(f"{prefix}_s", dur(by_name[name]) / u, "s")

    run_n = {i: rec[ATTRS].get("n") for i, rec in enumerate(spans) if rec[NAME] == "newton.run"}
    steps, facts = defaultdict(list), defaultdict(int)
    for i, rec in enumerate(spans):
        n = run_n.get(run_of[i])
        if rec[NAME] == "obstacle.solve":
            steps[n].append(rec)
        elif rec[NAME] == "linalg.factorize":
            facts[n] += 1
    for n in NEWTON_SIZES:
        runs = [spans[i] for i, size in run_n.items() if size == n]
        k = len(steps[n])
        put(f"newton.run_s.n{n}", dur(runs) / u, "s")
        put(f"newton.pdas_per_step.n{n}", attr_sum(steps[n], "pdas") / k if k else 0.0, "ratio")
        put(f"newton.factorizations_per_step.n{n}", facts[n] / k if k else 0.0, "ratio")
    put("newton.self_s", self_time(by_name["newton.run"]) / u, "s")

    calls_and_time("linalg.block_newton", "linalg.block_newton")
    calls_and_time("linalg.factorize", "linalg.factorize")
    put("linalg.factor_fill_nnz", attr_sum(by_name["linalg.factorize"], "fill") / u, "count")
    calls_and_time("linalg.fact_solve", "linalg.fact_solve")
    calls_and_time("linalg.cg", "linalg.cg")
    put("linalg.cg_operator_applies", attr_sum(by_name["linalg.cg"], "applies") / u, "count")

    solves = by_name["obstacle.solve"]
    pdas = attr_sum(solves, "pdas")
    calls_and_time("obstacle.solve", "obstacle.solve")
    put("obstacle.self_s", self_time(solves) / u, "s")
    put("obstacle.pdas_iterations", pdas / u, "count")
    put("obstacle.pdas_iterations.max", max((r[ATTRS].get("pdas", 0) for r in solves), default=0), "count")
    put(
        "obstacle.factorizations_per_pdas_iteration",
        len(under("linalg.factorize", "obstacle.solve")) / pdas if pdas else 0.0,
        "ratio",
    )
    put("obstacle.failures", sum(1 for r in solves if r[ATTRS].get("raised")) / u, "count")

    calls_and_time("operators.apply_P", "operators.apply_P")
    calls_and_time("operators.apply_G", "operators.apply_G")
    put("operators.selector_factorizations", len(under("linalg.factorize", "operators.apply_G")) / u, "count")

    put("assembly.build_matrices_s", dur(by_name["assembly.build_matrices"]) / u, "s")
    calls_and_time("assembly.vector_norm", "assembly.vector_norm")
    put("mesh.build_s", dur(by_name["mesh.build"]) / u, "s")

    checks = [r for name in CHECKS.values() for r in by_name[f"diagnostics.check.{name}"]]
    for name in CHECKS.values():
        put(f"diagnostics.check_s.{name}", dur(by_name[f"diagnostics.check.{name}"]) / u, "s")
    failed = sum(1 for r in checks if r[ATTRS].get("raised") or not r[ATTRS].get("passed", True))
    put("diagnostics.failed", failed / u, "count")

    put("cli.run_sweep_s", dur(by_name["cli.run_sweep"]) / u, "s")
    put("cli.compute_eoc_s", dur(by_name["cli.compute_eoc"]) / u, "s")
    return out
