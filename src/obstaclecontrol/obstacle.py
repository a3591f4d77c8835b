"""Discrete obstacle problem and its primal-dual active set solver.

For a load z in W_h and an obstacle psi, the constrained state w on the
interior nodes minimizes  1/2 w^T K_V w - w^T (M z)|_V  subject to
w >= psi nodally.  The multiplier is never stored independently; it is
always recomputed as lambda = K_V w - (M z)|_V so that stationarity is
exact by construction.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import SPACE_V, FEMatrices, NodalFunction, inject
from .linalg import SolverError
from .mesh import Mesh

TOL_STRICT = 1e-10  # multiplier threshold separating strictly active from biactive
PDAS_MAX_ITER = 200


class InfeasibleConstraintsError(Exception):
    """Obstacle is nonnegative somewhere on the boundary; K_h is empty."""


class PdasNoConvergenceError(SolverError):
    """Active set did not repeat within the iteration cap.  The message
    names the mesh level and the set sizes of the last iterate."""


@dataclass
class ObstacleSolution:
    """State, multiplier and node classification of one obstacle solve."""

    w: NodalFunction  # V_h state
    lam: np.ndarray  # multiplier on interior nodes
    inactive: np.ndarray
    strictly_active: np.ndarray
    biactive: np.ndarray
    pdas_iterations: int
    # final PDAS masks of this mesh and of each coarser level, finest first
    active_masks: tuple[np.ndarray, ...] = ()
    coarse_pdas_iterations: tuple[int, ...] = ()  # PDAS iterations of the coarser levels


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


def _pdas(mats: FEMatrices, z_full: np.ndarray, psi_full: np.ndarray,
          previous: tuple | None, level: str = "level"):
    """PDAS on one mesh of the hierarchy.  `previous` holds the final
    active masks of the previous solve on this mesh and its coarser
    levels, finest first; None is a cold solve: this mesh only, from
    every node free.  A warm solve runs every level: the coarser level
    is solved first, with z and psi injected and previous[1:].  If its
    new mask is its previous one, this mesh starts from its own previous
    mask; else from prolong_active of the new coarse mask.  The coarsest
    level starts from its previous mask, or with every node free.
    Returns w, lam and the final active masks and PDAS iterations of
    this mesh and of every coarser level, finest first.  `level` names
    this mesh in the error, followed by its n."""
    inter = mats.interior
    active = previous[0] if previous else np.zeros(inter.size, dtype=bool)
    masks, its = (), ()
    coarse = None if previous is None else mats.coarse
    if coarse is not None:
        _, _, masks, its = _pdas(
            coarse, inject(z_full, mats.mesh), inject(psi_full, mats.mesh), previous[1:],
            "coarse level",
        )
        if len(previous) < 2 or not np.array_equal(masks[0], previous[1]):
            active = prolong_active(mats, masks[0])

    psi_int = psi_full[inter]
    load = (mats.M @ z_full)[inter]
    k_int = mats.K_int
    for it in range(1, PDAS_MAX_ITER + 1):
        free = np.flatnonzero(~active)
        w = np.where(active, psi_int, 0.0)
        w[free] = mats.free_factorization(free).solve((load - k_int @ w)[free])
        lam = k_int @ w - load
        next_active = lam + (psi_int - w) > 0.0
        if np.array_equal(next_active, active):
            return w, lam, (active, *masks), (it, *its)
        active = next_active
    raise PdasNoConvergenceError(
        f"{level} n={mats.mesh.n}: active set did not settle within {PDAS_MAX_ITER} "
        f"iterations; last iterate |free| = {free.size}, |active| = {inter.size - free.size}"
    )


def prolong_active(mats: FEMatrices, coarse_mask: np.ndarray) -> np.ndarray:
    """Active mask on the interior of mats from one on the interior of
    mats.coarse: the prolonged 0/1 indicator above 0.5, so that an edge
    midpoint is active only when both of its ends are."""
    coarse = mats.coarse
    indicator = np.zeros(coarse.mesh.num_nodes)
    indicator[coarse.interior[coarse_mask]] = 1.0
    return (mats.prolongation @ indicator)[mats.interior] > 0.5


def solve_obstacle(
    z: NodalFunction,
    psi: NodalFunction,
    mesh: Mesh,
    mats: FEMatrices,
    warm_start: ObstacleSolution | None = None,
) -> ObstacleSolution:
    """Primal-dual active set iteration for the discrete obstacle problem.

    Terminates when the active set repeats exactly, which for the
    M-matrix stiffness of the Friedrichs-Keller mesh happens after
    finitely many steps.  Without a warm start it starts with every
    node free.  With one, the solution for a nearby load, it starts
    from its active masks and a solve on every coarser level (_pdas).
    The final iterate is the solve on the final active set, whichever
    start led to it; PDAS_MAX_ITER caps the PDAS loop of every level.
    """
    psi_full = psi.extended()
    _check_feasible(psi_full, mesh)
    previous = None if warm_start is None else warm_start.active_masks
    w, lam, masks, its = _pdas(mats, z.extended(), psi_full, previous)

    inactive, strict, biactive = classify_nodes(w, lam, psi_full[mats.interior])
    return ObstacleSolution(
        w=NodalFunction(w, SPACE_V, mesh),
        lam=lam,
        inactive=inactive,
        strictly_active=strict,
        biactive=biactive,
        pdas_iterations=its[0],
        active_masks=masks,
        coarse_pdas_iterations=its[1:],
    )
