"""Discrete obstacle problem and its primal-dual active set solver.

For a load z in W_h and an obstacle psi, the constrained state w on the
interior nodes minimizes  1/2 w^T K_V w - w^T (M z)|_V  subject to
w >= psi nodally.  The multiplier is never stored independently; it is
always recomputed as lambda = K_V w - (M z)|_V so that stationarity is
exact by construction.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import SPACE_V, FEMatrices, NodalFunction
from .mesh import Mesh

TOL_STRICT = 1e-10  # multiplier threshold separating strictly active from biactive
PDAS_MAX_ITER = 200


class InfeasibleConstraintsError(Exception):
    """Obstacle is nonnegative somewhere on the boundary; K_h is empty."""


class PdasNoConvergenceError(Exception):
    """Active set did not repeat within the iteration cap."""


@dataclass
class ObstacleSolution:
    """State, multiplier and node classification of one obstacle solve."""

    w: NodalFunction  # V_h state
    lam: np.ndarray  # multiplier on interior nodes
    inactive: np.ndarray
    strictly_active: np.ndarray
    biactive: np.ndarray
    pdas_iterations: int

    @property
    def active(self) -> np.ndarray:
        return np.union1d(self.strictly_active, self.biactive)


def _check_feasible(psi_full: np.ndarray, mesh: Mesh):
    if np.any(psi_full[mesh.boundary_mask] >= 0.0):
        raise InfeasibleConstraintsError(
            "obstacle must be negative on the boundary (zero boundary data)"
        )


def classify_nodes(w_int: np.ndarray, lam: np.ndarray, psi_int: np.ndarray):
    """Partition interior nodes into inactive / strictly active / biactive.
    A node is active when w lies within 1e-12 (1 + |psi|) of the obstacle."""
    inactive_mask = w_int > psi_int + 1e-12 * (1.0 + np.abs(psi_int))
    strict_mask = ~inactive_mask & (lam > TOL_STRICT)
    biactive_mask = ~inactive_mask & ~strict_mask
    return (
        np.flatnonzero(inactive_mask),
        np.flatnonzero(strict_mask),
        np.flatnonzero(biactive_mask),
    )


def solve_obstacle(
    z: NodalFunction,
    psi: NodalFunction,
    mesh: Mesh,
    mats: FEMatrices,
    warm_start_active: np.ndarray | None = None,
    max_iterations: int = PDAS_MAX_ITER,
) -> ObstacleSolution:
    """Primal-dual active set iteration for the discrete obstacle problem.

    Terminates when the active set repeats exactly, which for the
    M-matrix stiffness of the Friedrichs-Keller mesh happens after
    finitely many steps.
    """
    psi_full = psi.extended()
    _check_feasible(psi_full, mesh)
    inter = mats.interior
    psi_int = psi_full[inter]
    load = (mats.M @ z.extended())[inter]
    m = inter.size

    active = np.zeros(m, dtype=bool)
    if warm_start_active is not None:
        active[np.asarray(warm_start_active, dtype=int)] = True

    k_int = mats.K_int
    for it in range(1, max_iterations + 1):
        free = np.flatnonzero(~active)
        w = np.where(active, psi_int, 0.0)
        if free.size:
            w[free] = mats.free_factorization(free).solve((load - k_int @ w)[free])
        lam = k_int @ w - load
        next_active = lam + (psi_int - w) > 0.0
        if np.array_equal(next_active, active):
            break
        active = next_active
    else:
        raise PdasNoConvergenceError(
            f"active set did not settle within {max_iterations} iterations"
        )

    inactive, strict, biactive = classify_nodes(w, lam, psi_int)
    return ObstacleSolution(
        w=NodalFunction(w, SPACE_V, mesh),
        lam=lam,
        inactive=inactive,
        strictly_active=strict,
        biactive=biactive,
        pdas_iterations=it,
    )
