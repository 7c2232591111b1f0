"""Piecewise-linear finite elements on punctured rasters.

Every free cell is split into two right triangles along the same diagonal
(lower-left to upper-right): the lower triangle (00, 10, 11) and the upper
triangle (00, 11, 01) of its corner nodes.  Every per-triangle quantity is
then a pair of cell rasters computed from slices of the node raster, so
the mesh keeps no triangle tables.  Dirichlet boundary families pin their
nodes exactly (reduced system); Neumann families are natural and need no
terms.  Accumulation uses fixed numpy orders, so energies are
bit-reproducible across runs.  A mesh also carries the index structure of
its 5- and 7-point stencil matrices (`StencilPattern`), built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @property
    def stencil_lead(self) -> int:
        """Zeros ahead of each node raster in a coupling buffer (see
        `StencilPattern`): a row's south-west neighbour is nx + 2 flat ids
        back."""
        return self.grid.nx + 2

    @cached_property
    def stencil5(self) -> "StencilPattern":
        """Slots of the stiffness: self and the four edge neighbours."""
        return _stencil_pattern(self, diagonal=False)

    @cached_property
    def stencil7(self) -> "StencilPattern":
        """Slots of a Newton Hessian: stencil5 plus the south-west and
        north-east neighbours across each cell's split diagonal."""
        return _stencil_pattern(self, diagonal=True)

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


@dataclass(frozen=True)
class StencilPattern:
    """Where a free-node matrix of the mesh's raster stencil stores its
    entries, built once per mesh from the free cells alone.

    The matrix's couplings are written into a coupling buffer of shape
    (4, stencil_lead + n_nodes): rows self, east, north and north-east,
    each a node raster after stencil_lead zeros.  CSR slot k then holds
    buffer.ravel()[gather[k]] in column indices[k], row i's slots are
    indptr[i]:indptr[i + 1] in increasing column order, and diag[i] is row
    i's diagonal slot.  A slot is stored when some free triangle couples
    its two free nodes, whatever the values, so a matrix may store exact
    zeros.  indices and indptr are int32 as CSR keeps them; gather and
    diag are intp and used as fancy indices: an int32 index is converted on
    every call (3x slower at 1/64), and take is 7x slower with a read-only
    index.
    """

    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray


def _stencil_pattern(M: TriMesh, diagonal: bool) -> StencilPattern:
    nx1 = M.grid.nx + 1
    lead = M.stencil_lead
    free = M.free_cells.mask
    # the couplings some free triangle makes, in the buffer's layout: the
    # lower triangle (00, 10, 11) has edges 00-10, 10-11 and 00-11, the
    # upper (00, 11, 01) edges 01-11, 00-01 and 00-11
    linked = np.zeros((4, lead + M.n_nodes), dtype=bool)
    D, E, N, NE = linked[:, lead:].reshape((4,) + M.grid.node_shape)
    for view in (D[:-1, :-1], D[:-1, 1:], D[1:, :-1], D[1:, 1:],
                 E[:-1, :-1], E[1:, :-1], N[:-1, :-1], N[:-1, 1:]):
        view |= free
    NE[:-1, :-1] = free
    # a row's columns in increasing order as (buffer row, offset):
    # south-west, south and west are read off that neighbour's north-east,
    # north and east; a neighbour past the window's edge is never linked
    stencil = [(3, -nx1 - 1), (2, -nx1), (1, -1), (0, 0), (1, 1), (2, nx1),
               (3, nx1 + 1)]
    if not diagonal:
        stencil = stencil[1:-1]
    rows, offsets = np.array(stencil).T
    g = M.free_nodes[:, None] + lead
    gather = rows * linked.shape[1] + g + np.minimum(offsets, 0)
    free_index = np.full(M.n_nodes + 2 * lead, -1, dtype=np.int32)
    free_index[lead:-lead] = M.free_index
    cols = free_index[g + offsets]
    kept = linked.ravel()[gather] & (cols >= 0)
    indptr = np.zeros(M.n_free + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    diag = indptr[:-1] + kept[:, :len(stencil) // 2].sum(axis=1)
    pattern = StencilPattern(gather[kept].astype(np.intp), cols[kept], indptr,
                             diag.astype(np.intp))
    for arr in (pattern.gather, pattern.indices, indptr, pattern.diag):
        arr.setflags(write=False)
    return pattern


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


def energy_grad_flat(M: TriMesh, flat: np.ndarray, p: float
                     ) -> tuple[float, np.ndarray]:
    """energy_p and its gradient on the free nodes from one pass over the
    triangle gradients; powers are taken on the free cells only, and for
    the gradient only where |grad| > 0."""
    gx, gy = triangle_gradients(M, flat)
    g2 = gx * gx + gy * gy
    power = np.zeros_like(g2)
    np.power(g2, 0.5 * p, out=power, where=M.free_cells.mask)
    energy = float(M.area * np.sum(power))
    power.fill(0.0)
    np.power(g2, 0.5 * p - 1.0, out=power, where=g2 > 0.0)
    # area p |g|^(p-2) g . grad phi_i, with grad phi_i = (cx_i, cy_i) /
    # spacing for the corner nodes' coefficients of each triangle
    power *= M.area * p / M.grid.spacing
    fx, fy = power * gx, power * gy
    full = np.zeros(M.grid.node_shape)
    full[:-1, :-1] -= fx[0] + fy[1]     # node 00: (-1, 0) and (0, -1)
    full[:-1, 1:] += fx[0] - fy[0]      # node 10 of the lower: (1, -1)
    full[1:, :-1] += fy[1] - fx[1]      # node 01 of the upper: (-1, 1)
    full[1:, 1:] += fy[0] + fx[1]       # node 11: (0, 1) and (1, 0)
    return energy, full.ravel()[M.free_nodes]


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
    return energy_grad_flat(M, _checked(M, u, p, pinned=True), p)[0]


def grad_energy_p(M: TriMesh, u: GridFunction, p: float) -> np.ndarray:
    """Exact gradient of energy_p with respect to the free nodal values;
    finite for every p > 1 because |g|^(p-2) g -> 0 as g -> 0."""
    return energy_grad_flat(M, _checked(M, u, p, pinned=True), p)[1]


def mass_p(M: TriMesh, u: GridFunction, p: float) -> float:
    """Lumped sum_n w_n |u_n|^p over the mesh nodes."""
    return mass_flat(M, _checked(M, u, p, pinned=False), p)


def grad_mass_p(M: TriMesh, u: GridFunction, p: float) -> np.ndarray:
    """Gradient p * w_n |u_n|^(p-2) u_n on the free nodes."""
    return grad_mass_flat(M, _checked(M, u, p, pinned=False), p)
