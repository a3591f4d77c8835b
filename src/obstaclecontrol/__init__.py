"""Semismooth Newton solver for obstacle-constrained optimal control
on the unit square, with P1 finite elements and a primal-dual active
set inner solver."""

__version__ = "0.1.0"

from .assembly import (
    NodalFunction,
    build_matrices,
    interpolate,
    mass_matrix,
    stiffness_matrix,
)
from .mesh import Mesh, build_friedrichs_keller
from .newton import NewtonConfig, NewtonReport, run
from .obstacle import ObstacleSolution, solve_obstacle

__all__ = [
    "Mesh",
    "NewtonConfig",
    "NewtonReport",
    "NodalFunction",
    "ObstacleSolution",
    "build_friedrichs_keller",
    "build_matrices",
    "interpolate",
    "mass_matrix",
    "run",
    "solve_obstacle",
    "stiffness_matrix",
]
