"""Outer semismooth Newton iteration for the discrete control problem.

Each sweep of the loop computes the adjoint-type quantity
zeta_i = (P I_h(y_D) - P y_i) / alpha, the control u_i as the obstacle
solve at zeta_i and the trial state ytilde_i = P u_i, then checks the
L2 residual ||y_i - ytilde_i|| and, if necessary, solves

    y_{i+1} + (1/alpha) P G_N P y_{i+1} = ytilde_i + (1/alpha) P G_N P y_i

with N the strictly active node set of the obstacle solve.  The loop
solves it for the correction y_{i+1} - y_i, whose right-hand side is
ytilde_i - y_i.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import SPACE_W, FEMatrices, NodalFunction, interpolate, vector_norm
from .linalg import BlockFactorizationError, cg_self_adjoint, solve_block_newton
from .obstacle import ObstacleSolution, PdasNoConvergenceError, solve_obstacle
from .operators import DerivativeSelector, apply_G, apply_P, extend_interior


SELECTOR_POLICIES = ("strict_only", "strict_plus_biactive")


class ContractionViolationError(Exception):
    """Newton solve produced ||y|| > ||rhs|| in L2; the operator lost
    its unit inverse bound, which indicates a sign or adjointness bug."""


class DivergenceError(Exception):
    """The L2 residual of an outer iteration is not finite: the iterates
    grew until their norms overflowed."""


def _is_number(value, kind) -> bool:
    """isinstance(value, kind) for a non-bool: True is an Integral, but a
    boolean alpha, tol or max_iter is a mistake in the config file."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class NewtonConfig:
    alpha: float
    tol: float = 1e-7
    max_iter: int = 50
    selector_policy: str = "strict_only"  # one of SELECTOR_POLICIES
    y0: np.ndarray | None = None  # initial guess on all nodes; None means I_h(y_D)

    def __post_init__(self):
        if not (_is_number(self.alpha, numbers.Real) and 0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        # also rejects NaN; tol = inf stops at iteration 0
        if not (_is_number(self.tol, numbers.Real) and self.tol >= 0):
            raise ValueError(f"tol must be nonnegative, got {self.tol!r}")
        if not (_is_number(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if self.selector_policy not in SELECTOR_POLICIES:
            raise ValueError(f"unknown selector policy {self.selector_policy!r}")


@dataclass
class IterationRecord:
    index: int
    residual: float
    n_constrained: int
    y: np.ndarray
    ytilde: np.ndarray
    u: np.ndarray  # interior values
    pdas_iterations: int  # of the obstacle solve on this mesh
    coarse_pdas_iterations: tuple[int, ...]  # of its coarser levels, finest first


@dataclass
class NewtonReport:
    iterations: int
    status: str  # "converged" or "max_iter_reached"
    history: list[IterationRecord]
    y: np.ndarray
    ytilde: np.ndarray
    u: np.ndarray
    zeta: np.ndarray  # (P I_h y_D - P y) / alpha at the last iterate
    y_d: np.ndarray  # I_h y_D on all nodes
    final_solution: ObstacleSolution

    @property
    def residuals(self) -> list[float]:
        return [rec.residual for rec in self.history]


def newton_step_matrix_apply(
    y: np.ndarray, selector: DerivativeSelector, alpha: float, mats: FEMatrices
) -> np.ndarray:
    """Apply y -> y + (1/alpha) P E G P y on full-node vectors."""
    py = apply_P(y, mats)
    w = apply_G(selector, py, mats)
    return y + apply_P(extend_interior(w, mats), mats) / alpha


def solve_newton_system(
    rhs: np.ndarray,
    selector: DerivativeSelector,
    alpha: float,
    mats: FEMatrices,
) -> np.ndarray:
    """Direct block solve of the Newton update equation."""
    return solve_block_newton(mats.newton_block(alpha), selector.free, alpha, rhs)


def solve_newton_system_cg(
    rhs: np.ndarray,
    selector: DerivativeSelector,
    alpha: float,
    mats: FEMatrices,
    tol: float = 1e-12,
) -> np.ndarray:
    """Matrix-free cross-check: conjugate directions in the M inner
    product applied to the (M-self-adjoint, positive definite) Newton
    operator.  Test-only path."""
    m = mats.M

    def inner(x, z):
        return float(x @ (m @ z))

    return cg_self_adjoint(
        lambda v: newton_step_matrix_apply(v, selector, alpha, mats), rhs, inner, tol=tol
    )


def run(config: NewtonConfig, y_d_field, psi_field, mesh, mats: FEMatrices) -> NewtonReport:
    """Run the semismooth Newton method; records one entry per residual check.
    The fields y_D and psi are callables f(x1, x2) evaluated at the nodes."""
    y_d = interpolate(y_d_field, mesh)
    psi = interpolate(psi_field, mesh)
    y0 = y_d if config.y0 is None else NodalFunction(config.y0, SPACE_W, mesh)
    y = y0.extended().copy()

    p_yd = apply_P(y_d.extended(), mats)
    include_biactive = config.selector_policy == "strict_plus_biactive"

    history: list[IterationRecord] = []
    sol = None
    status = "max_iter_reached"
    for i in range(config.max_iter + 1):
        py = apply_P(y, mats)
        zeta = (p_yd - py) / config.alpha
        try:
            sol = solve_obstacle(
                NodalFunction(zeta, SPACE_W, mesh), psi, mesh, mats,
                warm_start=sol,
            )
        except PdasNoConvergenceError as exc:
            raise PdasNoConvergenceError(f"outer iteration {i}: {exc}") from exc
        u_int = sol.w.values
        ytilde = apply_P(extend_interior(u_int, mats), mats)
        residual = vector_norm(y - ytilde, "L2", mats.K, mats.M)
        if not math.isfinite(residual):
            raise DivergenceError(
                f"outer iteration {i}: residual {residual} is not finite; the iterates diverged"
            )

        selector = DerivativeSelector.from_solution(sol, mats, include_biactive)
        history.append(
            IterationRecord(
                index=i,
                residual=residual,
                n_constrained=selector.constrained.size,
                y=y.copy(),
                ytilde=ytilde,
                u=u_int.copy(),
                pdas_iterations=sol.pdas_iterations,
                coarse_pdas_iterations=sol.coarse_pdas_iterations,
            )
        )
        if residual <= config.tol:
            status = "converged"
            break
        if i == config.max_iter:
            break
        # the update equation minus the Newton operator at y; solving for
        # the correction keeps the solver's relative error relative to it
        try:
            step = solve_newton_system(ytilde - y, selector, config.alpha, mats)
        except BlockFactorizationError as exc:
            raise BlockFactorizationError(f"outer iteration {i}: {exc}") from exc
        # the inverse Newton operator has unit L2 bound: the step cannot be
        # longer than its right-hand side, whose norm is the residual
        norm_step = vector_norm(step, "L2", mats.K, mats.M)
        if not norm_step <= (1.0 + 1e-9) * residual + 1e-300:  # also NaN
            raise ContractionViolationError(
                f"outer iteration {i}: ||step|| = {norm_step:.6e} exceeds "
                f"||ytilde - y|| = {residual:.6e}"
            )
        y = y + step

    last = history[-1]
    return NewtonReport(
        iterations=last.index,
        status=status,
        history=history,
        y=last.y,
        ytilde=last.ytilde,
        u=last.u,
        zeta=zeta,
        y_d=y_d.values,
        final_solution=sol,
    )
