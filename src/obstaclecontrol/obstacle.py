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


def _interior_load(z: NodalFunction, mats: FEMatrices) -> np.ndarray:
    return (mats.M @ z.extended())[mats.interior]


def classify_nodes(
    w_int: np.ndarray,
    lam: np.ndarray,
    psi_int: np.ndarray,
    tol_active: np.ndarray | float | None = None,
    tol_strict: float = TOL_STRICT,
):
    """Partition interior nodes into inactive / strictly active / biactive."""
    if tol_active is None:
        tol_active = 1e-12 * (1.0 + np.abs(psi_int))
    inactive_mask = w_int > psi_int + tol_active
    strict_mask = ~inactive_mask & (lam > tol_strict)
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
    load = _interior_load(z, mats)
    m = inter.size

    active = np.zeros(m, dtype=bool)
    if warm_start_active is not None:
        active[np.asarray(warm_start_active, dtype=int)] = True

    k_int = mats.K_int
    w = np.empty(m)
    for it in range(1, max_iterations + 1):
        free = np.flatnonzero(~active)
        act = np.flatnonzero(active)
        w[act] = psi_int[act]
        if free.size:
            rhs_f = load[free]
            if act.size:
                rhs_f = rhs_f - k_int[np.ix_(free, act)] @ psi_int[act]
            w[free] = mats.free_factorization(free).solve(rhs_f)
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


def brute_force_oracle(
    z: NodalFunction,
    psi: NodalFunction,
    mesh: Mesh,
    mats: FEMatrices,
    tol: float = 1e-10,
) -> ObstacleSolution:
    """KKT enumeration over all active sets; independent of the PDAS path.

    Only usable on meshes with at most 16 interior nodes.
    """
    psi_full = psi.extended()
    _check_feasible(psi_full, mesh)
    inter = mats.interior
    m = inter.size
    if m > 16:
        raise ValueError(f"oracle limited to 16 interior nodes, mesh has {m}")
    psi_int = psi_full[inter]
    load = _interior_load(z, mats)
    k_dense = mats.K_int.toarray()

    best = None
    for bits in range(1 << m):
        act_mask = np.array([(bits >> k) & 1 for k in range(m)], dtype=bool)
        free = np.flatnonzero(~act_mask)
        act = np.flatnonzero(act_mask)
        w = np.empty(m)
        w[act] = psi_int[act]
        if free.size:
            rhs_f = load[free] - k_dense[np.ix_(free, act)] @ psi_int[act]
            w[free] = np.linalg.solve(k_dense[np.ix_(free, free)], rhs_f)
        lam = k_dense @ w - load
        feasible = np.all(w >= psi_int - tol * (1.0 + np.abs(psi_int)))
        dual_ok = np.all(lam[act] >= -tol)
        if feasible and dual_ok and np.all(np.abs(lam[free]) <= tol * (1.0 + np.abs(load[free]))):
            candidate = (w, lam)
            if best is None:
                best = candidate
    if best is None:
        raise RuntimeError("enumeration found no KKT point; assembly is broken")

    w, lam = best
    inactive, strict, biactive = classify_nodes(w, lam, psi_int)
    return ObstacleSolution(
        w=NodalFunction(w, SPACE_V, mesh),
        lam=lam,
        inactive=inactive,
        strictly_active=strict,
        biactive=biactive,
        pdas_iterations=0,
    )
