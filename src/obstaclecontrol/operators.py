"""The two linear solution operators of the Newton iteration.

apply_P is the H^1 Riesz map on W_h: it solves the Neumann Helmholtz
problem (K + M) y = M u.  apply_G is the generalized derivative of the
obstacle solution map: a Dirichlet solve on the subspace of V_h
functions vanishing on a chosen node set N.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import FEMatrices
from .obstacle import ObstacleSolution


@dataclass
class DerivativeSelector:
    """Node set N (interior indices, local numbering) and its complement,
    the free set on which apply_G solves."""

    constrained: np.ndarray  # indices into mats.interior
    free: np.ndarray

    @classmethod
    def from_node_set(cls, constrained, mats: FEMatrices) -> "DerivativeSelector":
        m = mats.interior.size
        constrained = np.unique(np.asarray(constrained, dtype=int))
        if constrained.size and (constrained.min() < 0 or constrained.max() >= m):
            raise ValueError("constrained node index out of range")
        mask = np.zeros(m, dtype=bool)
        mask[constrained] = True
        return cls(constrained=constrained, free=np.flatnonzero(~mask))

    @classmethod
    def from_solution(
        cls, sol: ObstacleSolution, mats: FEMatrices, include_biactive: bool = False
    ) -> "DerivativeSelector":
        n = sol.strictly_active
        if include_biactive:
            n = np.union1d(n, sol.biactive)
        return cls.from_node_set(n, mats)


def apply_P(u: np.ndarray, mats: FEMatrices) -> np.ndarray:
    """Riesz map: y with (K+M) y = M u, for a full-node coefficient vector."""
    return mats.a_factorization().solve(mats.M @ u)


def apply_G(selector: DerivativeSelector, a: np.ndarray, mats: FEMatrices) -> np.ndarray:
    """Constrained Dirichlet solve: w = 0 on N and the boundary,
    K_ff w_f = (M a)|_f on the free nodes.  Returns w on interior nodes."""
    m = mats.interior.size
    w = np.zeros(m)
    free = selector.free
    if free.size:
        load = (mats.M @ a)[mats.interior]
        w[free] = mats.free_factorization(free).solve(load[free])
    return w


def extend_interior(w_int: np.ndarray, mats: FEMatrices) -> np.ndarray:
    full = np.zeros(mats.mesh.num_nodes)
    full[mats.interior] = w_int
    return full
