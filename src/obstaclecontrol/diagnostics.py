"""Randomized structural checks on the discrete operators.

Each check draws its inputs from a seeded 64-bit generator, records the
worst violation over all trials and compares it against a fixed
tolerance.  The slack of 1e-9 on the solver-mediated checks is the
direct-solve residual bound (1e-10) times a safety factor of ten.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import FEMatrices, NodalFunction, build_matrices, vector_norm
from .mesh import Mesh, build_friedrichs_keller
from .newton import solve_newton_system
from .obstacle import solve_obstacle
from .operators import DerivativeSelector, apply_G, extend_interior

CONVEXITY_SLACK = 1e-9
MONOTONICITY_SLACK = 1e-12
CONTRACTION_SLACK = 1e-9
NEWTON_DIFF_SCALES = tuple(10.0 ** (-k) for k in range(1, 7))  # Taylor-remainder ladder
# A Taylor remainder at most NEWTON_DIFF_ROUNDOFF * eps * (||S(b+z)|| +
# ||S(b)||) in L2 is round-off of the two obstacle solves and counts as
# zero.  On the paper base at n = 16, over the 2000 seeds
# s * 100000 + u (s < 40, u < 50), no remainder at any scale exceeded
# 0.64 of eps * (||S(b+z)|| + ||S(b)||).
NEWTON_DIFF_ROUNDOFF = 8.0
LIPSCHITZ_SIZES = (8, 16, 32)  # the meshes of check_lipschitz_scaling, coarsest first


@dataclass
class CheckReport:
    name: str
    trials: int
    max_violation: float
    tolerance: float
    seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _random_field(rng, mesh: Mesh) -> NodalFunction:
    return NodalFunction(rng.uniform(-10.0, 10.0, mesh.num_nodes), mesh)


def _const_psi(mesh: Mesh, value: float = -1.0) -> NodalFunction:
    return NodalFunction(np.full(mesh.num_nodes, value), mesh)


def _random_selector(rng, mats: FEMatrices) -> DerivativeSelector:
    """Selector for a random constrained set of random density."""
    constrained = np.flatnonzero(rng.random(mats.interior.size) < rng.uniform(0.0, 1.0))
    return DerivativeSelector.from_node_set(constrained, mats)


def check_pointwise_convexity(
    mesh: Mesh, mats: FEMatrices, trials: int = 100, seed: int = 42
) -> CheckReport:
    """Nodal convexity of the obstacle solution map in its load."""
    rng = np.random.default_rng(seed)
    psi = _const_psi(mesh)
    worst = 0.0
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(trials):
        z1 = _random_field(rng, mesh)
        z2 = _random_field(rng, mesh)
        s1 = solve_obstacle(z1, psi, mats).w
        s2 = solve_obstacle(z2, psi, mats).w
        lam = lambdas[rng.integers(len(lambdas))]
        mix = NodalFunction(lam * z1.values + (1 - lam) * z2.values, mesh)
        s_mix = solve_obstacle(mix, psi, mats).w
        violation = float(np.max(s_mix - (lam * s1 + (1 - lam) * s2)))
        worst = max(worst, violation)
    return CheckReport(
        name="convexity",
        trials=trials,
        max_violation=worst,
        tolerance=CONVEXITY_SLACK,
        seed=seed,
    )


def check_derivative_monotonicity(
    mesh: Mesh, mats: FEMatrices, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Nonnegativity of the pairing (M a, extension of G a)."""
    rng = np.random.default_rng(seed)
    worst = 0.0  # most negative scaled pairing, flipped in sign
    for _ in range(trials):
        a = rng.uniform(-10.0, 10.0, mesh.num_nodes)
        w = apply_G(_random_selector(rng, mats), a, mats)
        pairing = float((mats.M @ a) @ extend_interior(w, mats))
        scale = 1.0 + abs(pairing)
        worst = max(worst, -pairing / scale)
    return CheckReport(
        name="monotonicity",
        trials=trials,
        max_violation=worst,
        tolerance=MONOTONICITY_SLACK,
        seed=seed,
    )


def check_newton_differentiability(
    mesh: Mesh,
    mats: FEMatrices,
    base: NodalFunction,
    psi: NodalFunction,
    seed: int = 0,
) -> CheckReport:
    """Taylor-remainder decay of the obstacle map along a fixed random
    direction, with the derivative chosen at the perturbed point.

    Passes when the remainder over t at the smallest scale is at most a
    tenth of that at the largest, or at most the round-off floor over t
    (see NEWTON_DIFF_ROUNDOFF)."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, mesh.num_nodes)
    d_norm = vector_norm(d, "L2", mats.K, mats.M)
    if d_norm == 0.0:
        raise ValueError("zero perturbation direction")
    d = d / d_norm
    s_base = solve_obstacle(base, psi, mats).w
    base_norm = vector_norm(extend_interior(s_base, mats), "L2", mats.K, mats.M)
    ratios = []
    for t in NEWTON_DIFF_SCALES:
        z = t * d
        perturbed = NodalFunction(base.values + z, mesh)
        sol = solve_obstacle(perturbed, psi, mats)
        sel = DerivativeSelector.from_solution(sol, mats)
        gz = apply_G(sel, z, mats)
        remainder = extend_interior(sol.w - s_base - gz, mats)
        ratios.append(vector_norm(remainder, "L2", mats.K, mats.M) / t)
    final, initial = ratios[-1], ratios[0]
    perturbed_norm = vector_norm(extend_interior(sol.w, mats), "L2", mats.K, mats.M)
    zero_floor = NEWTON_DIFF_ROUNDOFF * float(np.finfo(float).eps) * (perturbed_norm + base_norm)
    return CheckReport(
        name="newton_diff",
        trials=len(NEWTON_DIFF_SCALES),
        max_violation=final,
        tolerance=max(0.1 * initial, zero_floor / NEWTON_DIFF_SCALES[-1]),
        seed=seed,
        details={"scales": list(NEWTON_DIFF_SCALES), "ratios": ratios},
    )


def check_contraction(
    mesh: Mesh, mats: FEMatrices, alpha: float, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Unit bound of the inverse Newton operator in the L2 norm."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rhs = rng.uniform(-10.0, 10.0, mesh.num_nodes)
        y, *_ = solve_newton_system(rhs, _random_selector(rng, mats), alpha, mats)
        ratio = vector_norm(y, "L2", mats.K, mats.M) / vector_norm(
            rhs, "L2", mats.K, mats.M
        )
        worst = max(worst, ratio - 1.0)
    return CheckReport(
        name="contraction",
        trials=trials,
        max_violation=worst,
        tolerance=CONTRACTION_SLACK,
        seed=seed,
    )


def check_lipschitz_scaling(trials: int = 20, seed: int = 7) -> CheckReport:
    """Stability of the perturbation ratio ||S(u+z)-S(u)|| / ||z|| across
    the meshes LIPSCHITZ_SIZES.  Evidence for a mesh-independent
    Lipschitz constant, not a proof; only the L2 -> L2 ratio is sampled."""
    maxima = {}
    for n in LIPSCHITZ_SIZES:
        rng = np.random.default_rng(seed)
        mesh = build_friedrichs_keller(n)
        mats = build_matrices(mesh)
        psi = _const_psi(mesh)
        worst = 0.0
        for _ in range(trials):
            u = _random_field(rng, mesh)
            d = rng.uniform(-1.0, 1.0, mesh.num_nodes)
            d /= vector_norm(d, "L2", mats.K, mats.M)
            su = solve_obstacle(u, psi, mats).w
            for t in (1e-1, 1e-2, 1e-3):
                z = t * d
                perturbed = NodalFunction(u.values + z, mesh)
                suz = solve_obstacle(perturbed, psi, mats).w
                diff = extend_interior(suz - su, mats)
                worst = max(worst, vector_norm(diff, "L2", mats.K, mats.M) / t)
        maxima[n] = worst
    coarsest = maxima[LIPSCHITZ_SIZES[0]]
    overall = max(maxima.values())
    return CheckReport(
        name="lipschitz",
        trials=trials,
        max_violation=overall,
        tolerance=2.0 * coarsest,
        seed=seed,
        details={"per_mesh_maxima": {str(n): maxima[n] for n in LIPSCHITZ_SIZES}},
    )

