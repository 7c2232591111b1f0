"""Piecewise-linear finite elements on punctured rasters.

Every free cell is split into two right triangles along the same diagonal
(lower-left to upper-right): the lower triangle (00, 10, 11) and the upper
triangle (00, 11, 01) of its corner nodes.  Every per-triangle quantity is
then a pair of cell rasters computed from slices of the node raster, so
the mesh keeps no triangle tables.  Dirichlet boundary families pin their
nodes exactly (reduced system); Neumann families are natural and need no
terms.  Accumulation uses fixed numpy orders, so energies are
bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DirichletViolation
from .geometry import Grid, PuncturedDomain, RasterSet
from .rearrange import GridFunction, _node_incidence


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of the free region of a punctured domain:
    the free cells, each split into a lower and an upper triangle, and the
    node sets; flat node ids are iy * (nx + 1) + ix."""

    grid: Grid
    free_cells: RasterSet
    area: float                # uniform triangle area spacing^2 / 2
    dirichlet_nodes: np.ndarray  # sorted flat node ids
    free_nodes: np.ndarray       # sorted flat node ids
    free_index: np.ndarray       # (n_nodes,) compact index or -1
    mass_w: np.ndarray           # (n_nodes,) lumped weights

    def __post_init__(self):
        for name in ("dirichlet_nodes", "free_nodes", "free_index", "mass_w"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return (self.grid.nx + 1) * (self.grid.ny + 1)

    @property
    def n_free(self) -> int:
        return int(self.free_nodes.size)

    def node_id(self, ix: int, iy: int) -> int:
        return iy * (self.grid.nx + 1) + ix

    def flat_values(self, u: GridFunction) -> np.ndarray:
        if u.grid != self.grid:
            raise ValueError("function grid differs from mesh grid")
        return u.values.ravel()

    def embed(self, free_vals: np.ndarray) -> np.ndarray:
        """Full nodal vector with free_vals on the free nodes, 0 elsewhere."""
        flat = np.zeros(self.n_nodes)
        flat[self.free_nodes] = free_vals
        return flat

    def function_from_flat(self, flat: np.ndarray) -> GridFunction:
        vals = flat.reshape(self.grid.node_shape)
        return GridFunction(self.grid, vals, self.free_cells)


def triangulate(D: PuncturedDomain) -> TriMesh:
    """Mesh the free cells and pin every node that touches both a free cell
    and a cell of a Dirichlet boundary family.

    The four cells around a node form a cycle of edge neighbours, and
    neighbouring complement cells share a family, so this pins exactly the
    endpoints of the free region's edges on Dirichlet families.
    """
    grid = D.grid
    free = D.free().mask
    d = grid.spacing

    incidence = _node_incidence(free).ravel()
    active = incidence > 0
    # node (ix, iy) touches the padded cells [iy:iy+2, ix:ix+2]
    dc = D.dirichlet_cells()
    pinned = active & (dc[:-1, :-1] | dc[:-1, 1:] | dc[1:, :-1] | dc[1:, 1:]).ravel()
    dirichlet_nodes = np.flatnonzero(pinned)
    free_nodes = np.flatnonzero(active & ~pinned)

    free_index = np.full(active.size, -1, dtype=np.int64)
    free_index[free_nodes] = np.arange(free_nodes.size)

    mass_w = (d * d / 4.0) * incidence.astype(float)

    return TriMesh(grid, RasterSet(grid, free), d * d / 2.0, dirichlet_nodes,
                   free_nodes, free_index, mass_w)


def triangle_gradients(M: TriMesh, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant gradient (x and y parts) of the nodal vector flat on the
    lower ([0]) and upper ([1]) triangle of every cell, shape (2, ny, nx);
    0 on cells that are not free."""
    u = flat.reshape(M.grid.node_shape)
    free = M.free_cells.mask
    gx = np.zeros((2,) + free.shape)
    gy = np.zeros_like(gx)
    # lower (00, 10, 11), upper (00, 11, 01); rows are y, columns x
    np.subtract(u[:-1, 1:], u[:-1, :-1], out=gx[0], where=free)
    np.subtract(u[1:, 1:], u[:-1, 1:], out=gy[0], where=free)
    np.subtract(u[1:, 1:], u[1:, :-1], out=gx[1], where=free)
    np.subtract(u[1:, :-1], u[:-1, :-1], out=gy[1], where=free)
    inv = 1.0 / M.grid.spacing
    gx *= inv
    gy *= inv
    return gx, gy


# Kernels on full nodal vectors (length n_nodes), unchecked; the *_p
# functions below are their checked wrappers on GridFunctions.


def energy_flat(M: TriMesh, flat: np.ndarray, p: float) -> float:
    gx, gy = triangle_gradients(M, flat)
    g2 = gx * gx + gy * gy
    return float(M.area * np.sum(g2 ** (0.5 * p)))


def grad_energy_flat(M: TriMesh, flat: np.ndarray, p: float) -> np.ndarray:
    gx, gy = triangle_gradients(M, flat)
    g2 = gx * gx + gy * gy
    factor = np.zeros_like(g2)
    np.power(g2, 0.5 * p - 1.0, out=factor, where=g2 > 0.0)
    # area p |g|^(p-2) g . grad phi_i, with grad phi_i = (cx_i, cy_i) /
    # spacing for the corner nodes' coefficients of each triangle
    factor *= M.area * p / M.grid.spacing
    fx, fy = factor * gx, factor * gy
    full = np.zeros(M.grid.node_shape)
    full[:-1, :-1] -= fx[0] + fy[1]     # node 00: (-1, 0) and (0, -1)
    full[:-1, 1:] += fx[0] - fy[0]      # node 10 of the lower: (1, -1)
    full[1:, :-1] += fy[1] - fx[1]      # node 01 of the upper: (-1, 1)
    full[1:, 1:] += fy[0] + fx[1]       # node 11: (0, 1) and (1, 0)
    return full.ravel()[M.free_nodes]


def mass_flat(M: TriMesh, flat: np.ndarray, p: float) -> float:
    return float(np.sum(M.mass_w * np.abs(flat) ** p))


def grad_mass_flat(M: TriMesh, flat: np.ndarray, p: float) -> np.ndarray:
    v = flat[M.free_nodes]
    w = M.mass_w[M.free_nodes]
    out = np.zeros_like(v)
    nz = v != 0.0
    out[nz] = p * w[nz] * np.abs(v[nz]) ** (p - 2.0) * v[nz]
    return out


def _checked(M: TriMesh, u: GridFunction, p: float, pinned: bool) -> np.ndarray:
    """Flat values of u after the check that p > 1 is finite (and, if
    pinned, the check that u vanishes on the Dirichlet nodes)."""
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    flat = M.flat_values(u)
    if pinned and M.dirichlet_nodes.size and \
            np.abs(flat[M.dirichlet_nodes]).max() > 1e-14:
        raise DirichletViolation("function is nonzero on a pinned node")
    return flat


def energy_p(M: TriMesh, u: GridFunction, p: float) -> float:
    """sum_T area * |grad u|_T^p with the constant per-triangle gradient."""
    return energy_flat(M, _checked(M, u, p, pinned=True), p)


def grad_energy_p(M: TriMesh, u: GridFunction, p: float) -> np.ndarray:
    """Exact gradient of energy_p with respect to the free nodal values;
    finite for every p > 1 because |g|^(p-2) g -> 0 as g -> 0."""
    return grad_energy_flat(M, _checked(M, u, p, pinned=True), p)


def mass_p(M: TriMesh, u: GridFunction, p: float) -> float:
    """Lumped sum_n w_n |u_n|^p over the mesh nodes."""
    return mass_flat(M, _checked(M, u, p, pinned=False), p)


def grad_mass_p(M: TriMesh, u: GridFunction, p: float) -> np.ndarray:
    """Gradient p * w_n |u_n|^(p-2) u_n on the free nodes."""
    return grad_mass_flat(M, _checked(M, u, p, pinned=False), p)
