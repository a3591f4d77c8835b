"""Friedrichs-Keller triangulations of the unit square (0,1)^2.

The mesh is the uniform n-by-n grid with every cell split along the
diagonal from its lower-left to its upper-right corner.  Node numbering
is lexicographic with x running fastest, so node (i, j) has index
j*(n+1) + i and coordinates (i/n, j/n).
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of the unit square.

    Attributes:
        n: subdivisions per side (>= 2).
        h: mesh width, 1/n.
        nodes: (N, 2) array of node coordinates, N = (n+1)^2.
        triangles: (T, 3) int array of node indices (counterclockwise),
            T = 2*n^2.
        boundary_mask: (N,) bool array, True iff the node lies on the
            boundary of the square.
    """

    n: int
    h: float
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray

    @cached_property
    def interior(self) -> np.ndarray:
        """Indices of nodes strictly inside the square, ascending."""
        return np.flatnonzero(~self.boundary_mask)

    @property
    def nested_dissection(self) -> np.ndarray:
        """All node indices in geometric nested-dissection order, as one
        read-only array shared by every mesh of the same n.

        A full row or column of nodes separates the grid, since every
        edge joins nodes at most one step apart in each direction.  Each
        block is split across its longer side (its columns on a tie);
        its two halves are ordered recursively and the separator follows
        them.  Blocks of at most 2 x 2 nodes are not split."""
        return _nested_dissection(self.n)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


@cache
def _nested_dissection(n: int) -> np.ndarray:
    """Mesh.nested_dissection for n cells per side.

    Blocks of the same shape are ordered alike, so the order within
    each shape is built once, as row-major offsets in the block, from
    those of its two halves."""
    orders = {}

    def block(w, h):  # w columns, h rows
        if (w, h) not in orders:
            if w <= 2 and h <= 2:
                order = np.arange(w * h)
            elif w >= h:
                half, rest = w // 2, w - w // 2 - 1
                low, high = block(half, h), block(rest, h)
                order = np.concatenate([
                    low // half * w + low % half,
                    high // rest * w + high % rest + half + 1,
                    np.arange(h) * w + half,
                ])
            else:
                half = h // 2
                order = np.concatenate([
                    block(w, half),
                    block(w, h - half - 1) + (half + 1) * w,
                    half * w + np.arange(w),
                ])
            orders[w, h] = order
        return orders[w, h]

    order = block(n + 1, n + 1)
    order.flags.writeable = False
    return order


def build_friedrichs_keller(n: int) -> Mesh:
    """Build the Friedrichs-Keller triangulation with n cells per side."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"subdivision count must be an integer >= 2, got {n!r}")
    n = int(n)

    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) has corners ll, lr, ul, ur in lexicographic numbering
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (j * (n + 1) + i).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])  # below the ll->ur diagonal
    upper = np.column_stack([ll, ur, ul])  # above it
    triangles = np.vstack([lower, upper])

    on_boundary = (
        (nodes[:, 0] == 0.0)
        | (nodes[:, 0] == 1.0)
        | (nodes[:, 1] == 0.0)
        | (nodes[:, 1] == 1.0)
    )
    return Mesh(
        n=n,
        h=1.0 / n,
        nodes=nodes,
        triangles=triangles,
        boundary_mask=on_boundary,
    )
