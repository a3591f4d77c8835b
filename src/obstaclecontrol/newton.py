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

from .assembly import ALPHA_MIN, FEMatrices, NodalFunction, inject, interpolate, vector_norm
from .linalg import (
    BlockFactorizationError, CgNoConvergenceError, NotPositiveDefiniteError, SolverError,
    block_solver, cg_self_adjoint, solve_block_newton,
)
from .obstacle import ObstacleSolution, solve_obstacle
from .operators import DerivativeSelector, apply_G, apply_P, extend_interior


# The Newton step's PCG stops at a fixed relative M-norm residual: a
# tolerance tied to the outer residual changes the outer step counts.
PCG_TOL = 1e-10
# A PCG that reaches this many iterations is a CgNoConvergenceError.
PCG_MAX_ITER = 30


class ContractionViolationError(SolverError):
    """Newton solve produced ||y|| > ||rhs|| in L2; the operator lost
    its unit inverse bound, which indicates a sign or adjointness bug."""


class DivergenceError(SolverError):
    """A quantity of an outer iteration is not finite: zeta, or the L2
    residual when the iterates grew until their norms overflowed."""


def _is_number(value, kind) -> bool:
    """isinstance(value, kind) for a non-bool: True is an Integral, but a
    boolean alpha, tol or max_iter is a mistake in the config file."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class NewtonConfig:
    alpha: float
    tol: float = 1e-7
    max_iter: int = 50
    y0: np.ndarray | None = None  # initial guess on all nodes; None means I_h(y_D)

    def __post_init__(self):
        # also rejects NaN
        if not (_is_number(self.alpha, numbers.Real) and ALPHA_MIN <= self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and >= {ALPHA_MIN:g}, got {self.alpha!r}")
        # also rejects NaN; tol = inf stops at iteration 0
        if not (_is_number(self.tol, numbers.Real) and self.tol >= 0):
            raise ValueError(f"tol must be nonnegative, got {self.tol!r}")
        if not (_is_number(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


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
    # of the Newton step from this iterate, as solve_newton_system returns them:
    # (k >= 1, n_c) where PCG solved it, (0, None) where the block LU did or none was taken
    pcg_iterations: int = 0
    coarse_n: int | None = None  # the n of the preconditioner's coarse level


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


def two_grid_preconditioner(selector: DerivativeSelector, alpha: float, mats: FEMatrices, link):
    """(r, M r) -> B^{-1} r = r - (1/alpha) Pr b_c(Pr^T M r), the two-grid
    preconditioner of the Newton operator on a mesh with a coarse level.

    It is (I - Pr Q) + Pr T_c^{-1} Q with Q = M_c^{-1} Pr^T M, where T_c
    is the Newton operator of the level of link, the CoarseLink that
    FEMatrices.newton_coarse picks at alpha, Pr the prolongation from it,
    and b_c the block solve of T_c (factored here, without refinement),
    whose constrained nodes are the fine ones injected to it:
    T_c^{-1} q = q - b_c(M_c q)/alpha,
    and M_c cancels since Pr^T M Pr = M_c.  B^{-1} is self-adjoint and
    positive definite in the M inner product."""
    coarse = link.level
    constrained = np.zeros(mats.mesh.num_nodes, dtype=bool)
    constrained[mats.interior[selector.constrained]] = True
    coarse_free = np.flatnonzero(~inject(constrained, mats.mesh, coarse.mesh.n)[coarse.interior])
    try:
        solve_b = block_solver(coarse.newton_block(alpha), coarse_free)
    except BlockFactorizationError as exc:
        raise BlockFactorizationError(f"coarse level n={coarse.mesh.n}: {exc}") from exc
    pr, restrict = link.prolongation, link.restriction
    return lambda r, mr: r - pr @ solve_b(restrict @ mr) / alpha


def solve_newton_system(
    rhs: np.ndarray, selector: DerivativeSelector, alpha: float, mats: FEMatrices
) -> tuple[np.ndarray, int, int | None]:
    """Solve the Newton update equation by the path FEMatrices.newton_coarse
    picks at alpha: PCG with the two_grid_preconditioner from its level, to
    PCG_TOL within PCG_MAX_ITER iterations (else CgNoConvergenceError), or,
    where it returns None, the block solve on this mesh.  Returns the
    solution, the PCG iterations k and the preconditioner's coarse n_c:
    (k, n_c) where PCG solved it, (0, None) where the block LU did."""
    link = mats.newton_coarse(alpha)
    if link is None:
        return solve_block_newton(mats.newton_block(alpha), selector.free, rhs), 0, None
    y, iterations = solve_newton_system_cg(
        rhs, selector, alpha, mats, PCG_TOL, PCG_MAX_ITER,
        two_grid_preconditioner(selector, alpha, mats, link),
    )
    return y, iterations, link.level.mesh.n


def solve_newton_system_cg(
    rhs: np.ndarray,
    selector: DerivativeSelector,
    alpha: float,
    mats: FEMatrices,
    tol: float = 1e-12,
    max_iter: int = 20000,
    precondition=lambda r, mr: r,
) -> tuple[np.ndarray, int]:
    """CG on the Newton operator in the M inner product, in which it is
    self-adjoint and positive definite; returns the solution and the
    iterations, and its errors name the set sizes.  Without a
    preconditioner, the matrix-free cross-check of the block solve."""
    try:
        return cg_self_adjoint(
            lambda v: newton_step_matrix_apply(v, selector, alpha, mats), rhs,
            mats.M, tol, max_iter, precondition,
        )
    except (CgNoConvergenceError, NotPositiveDefiniteError) as exc:
        raise type(exc)(
            f"Newton CG with |free| = {selector.free.size}, "
            f"|constrained| = {selector.constrained.size}: {exc}"
        ) from exc


def run(config: NewtonConfig, y_d_field, psi_field, mesh, mats: FEMatrices) -> NewtonReport:
    """Run the semismooth Newton method; records one entry per residual check.
    The fields y_D and psi are callables f(x1, x2) evaluated at the nodes.
    A mesh of another n than mats is a ValueError."""
    if mesh.n != mats.mesh.n:
        raise ValueError(f"mesh has n={mesh.n}, but mats are of a level with n={mats.mesh.n}")
    y_d = interpolate(y_d_field, mesh)
    psi = interpolate(psi_field, mesh)
    y0 = y_d if config.y0 is None else NodalFunction(config.y0, mesh)
    y = y0.values.copy()

    p_yd = apply_P(y_d.values, mats)

    history: list[IterationRecord] = []
    sol = None
    status = "max_iter_reached"
    for i in range(config.max_iter + 1):
        try:
            py = apply_P(y, mats)
            with np.errstate(over="ignore", invalid="ignore"):
                zeta = (p_yd - py) / config.alpha
            if not np.all(np.isfinite(zeta)):
                raise DivergenceError("zeta = (P I_h y_D - P y) / alpha is not finite")
            sol = solve_obstacle(NodalFunction(zeta, mesh), psi, mats, warm_start=sol)
            u_int = sol.w
            ytilde = apply_P(extend_interior(u_int, mats), mats)
            residual = vector_norm(y - ytilde, "L2", mats.K, mats.M)
            if not math.isfinite(residual):
                raise DivergenceError(
                    f"residual {residual} is not finite; the iterates diverged"
                )

            selector = DerivativeSelector.from_solution(sol, mats)
            record = IterationRecord(
                index=i,
                residual=residual,
                n_constrained=selector.constrained.size,
                y=y.copy(),
                ytilde=ytilde,
                u=u_int.copy(),
                pdas_iterations=sol.pdas_iterations,
                coarse_pdas_iterations=sol.coarse_pdas_iterations,
            )
            history.append(record)
            if residual <= config.tol:
                status = "converged"
                break
            if i == config.max_iter:
                break
            # the update equation minus the Newton operator at y; solving for
            # the correction keeps the solver's relative error relative to it
            step, record.pcg_iterations, record.coarse_n = solve_newton_system(
                ytilde - y, selector, config.alpha, mats
            )
            # the inverse Newton operator has unit L2 bound: the step cannot be
            # longer than its right-hand side, whose norm is the residual
            norm_step = vector_norm(step, "L2", mats.K, mats.M)
            if not norm_step <= (1.0 + 1e-9) * residual + 1e-300:  # also NaN
                raise ContractionViolationError(
                    f"||step|| = {norm_step:.6e} exceeds ||ytilde - y|| = {residual:.6e}"
                )
        except SolverError as exc:
            raise type(exc)(f"outer iteration {i}: {exc}") from exc
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
