"""Piecewise-linear finite elements on punctured rasters.

Every free cell is split into two right triangles along the same diagonal
(lower-left to upper-right).  Dirichlet boundary families pin their nodes
exactly (reduced system); Neumann families are natural and need no terms.
Per-triangle accumulation uses fixed numpy orders, so energies are
bit-reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DirichletViolation, MalformedDomain
from .geometry import DIRICHLET, Grid, PuncturedDomain, RasterSet, _CONN4
from .rearrange import GridFunction, _node_incidence


@dataclass(frozen=True)
class BoundaryClassification:
    """Boundary edges of the free region grouped by complement component."""

    outer_edges: tuple
    hole_edges: tuple          # one edge tuple per hole
    hole_bcs: tuple            # boundary label per hole
    outer_bc: str


def classify_boundaries(D: PuncturedDomain) -> BoundaryClassification:
    """Partition free-region boundary edges by flood fill of the complement.

    Edges facing the unbounded complement component form the outer family;
    every bounded complement component (obstacle or pocket) contributes one
    hole family.  Holes covered by an obstacle carry that obstacle's label,
    pockets carry bc_inner.
    """
    grid = D.grid
    free = D.free().mask
    comp = np.pad(~free, 1, constant_values=True)
    labels, n = ndimage.label(comp, structure=_CONN4)
    unbounded = labels[0, 0]
    inner = labels[1:-1, 1:-1]

    hole_ids = sorted(set(np.unique(inner[~free]).tolist()) - {0, int(unbounded)})
    hole_bc = {}
    for k, ob in enumerate(D.obstacles):
        ids = set(np.unique(inner[ob.mask]).tolist()) - {0}
        if int(unbounded) in ids:
            raise MalformedDomain(f"obstacle {k} touches the outer boundary")
        for h in ids:
            prev = hole_bc.get(h)
            if prev is not None and prev != D.bc_obstacles[k]:
                raise MalformedDomain(
                    "complement component touches obstacles with different labels")
            hole_bc[h] = D.bc_obstacles[k]

    # neighbor component id for each cell side, aligned with free cells
    north = labels[2:, 1:-1]
    south = labels[:-2, 1:-1]
    west = labels[1:-1, :-2]
    east = labels[1:-1, 2:]

    outer_edges = []
    per_hole = {h: [] for h in hole_ids}

    def emit(mask, comp_ids, edge_of):
        ys, xs = np.nonzero(mask)
        for iy, ix in zip(ys.tolist(), xs.tolist()):
            cid = int(comp_ids[iy, ix])
            e = edge_of(ix, iy)
            if cid == unbounded:
                outer_edges.append(e)
            else:
                per_hole[cid].append(e)

    emit(free & (south > 0), south, lambda ix, iy: ((ix, iy), (ix + 1, iy)))
    emit(free & (north > 0), north, lambda ix, iy: ((ix, iy + 1), (ix + 1, iy + 1)))
    emit(free & (west > 0), west, lambda ix, iy: ((ix, iy), (ix, iy + 1)))
    emit(free & (east > 0), east, lambda ix, iy: ((ix + 1, iy), (ix + 1, iy + 1)))

    hole_edges = tuple(tuple(per_hole[h]) for h in hole_ids)
    hole_bcs = tuple(hole_bc.get(h, D.bc_inner) for h in hole_ids)
    return BoundaryClassification(tuple(outer_edges), hole_edges, hole_bcs,
                                  D.bc_outer)


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of the free region of a punctured domain."""

    grid: Grid
    free_cells: RasterSet
    tri_nodes: np.ndarray      # (T, 3) flat node ids
    grad_x: np.ndarray         # (T, 3) coefficients of the constant x-gradient
    grad_y: np.ndarray         # (T, 3)
    area: float                # uniform triangle area spacing^2 / 2
    dirichlet_nodes: np.ndarray  # sorted flat node ids
    free_nodes: np.ndarray       # sorted flat node ids
    free_index: np.ndarray       # (n_nodes,) compact index or -1
    mass_w: np.ndarray           # (n_nodes,) lumped weights
    boundaries: BoundaryClassification

    def __post_init__(self):
        for name in ("tri_nodes", "grad_x", "grad_y", "dirichlet_nodes",
                     "free_nodes", "free_index", "mass_w"):
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
    """Mesh the free cells; Dirichlet nodes come from the labeled families."""
    grid = D.grid
    cls = classify_boundaries(D)
    free = D.free().mask
    nx1 = grid.nx + 1

    ys, xs = np.nonzero(free)
    n00 = ys * nx1 + xs
    n10 = n00 + 1
    n01 = n00 + nx1
    n11 = n01 + 1
    # lower triangle (n00, n10, n11), upper triangle (n00, n11, n01)
    tri_nodes = np.empty((2 * n00.size, 3), dtype=np.int64)
    tri_nodes[0::2] = np.stack([n00, n10, n11], axis=1)
    tri_nodes[1::2] = np.stack([n00, n11, n01], axis=1)

    d = grid.spacing
    inv = 1.0 / d
    T = tri_nodes.shape[0]
    grad_x = np.empty((T, 3))
    grad_y = np.empty((T, 3))
    grad_x[0::2] = (-inv, inv, 0.0)
    grad_y[0::2] = (0.0, -inv, inv)
    grad_x[1::2] = (0.0, inv, -inv)
    grad_y[1::2] = (-inv, 0.0, inv)

    dirichlet = set()

    def pin(edges):
        for (a, b) in edges:
            dirichlet.add(a[1] * nx1 + a[0])
            dirichlet.add(b[1] * nx1 + b[0])

    if cls.outer_bc == DIRICHLET:
        pin(cls.outer_edges)
    for edges, bc in zip(cls.hole_edges, cls.hole_bcs):
        if bc == DIRICHLET:
            pin(edges)

    active = (_node_incidence(free) > 0).ravel()
    dirichlet_nodes = np.array(sorted(dirichlet), dtype=np.int64)
    is_dir = np.zeros(active.size, dtype=bool)
    is_dir[dirichlet_nodes] = True
    free_nodes = np.flatnonzero(active & ~is_dir)

    free_index = np.full(active.size, -1, dtype=np.int64)
    free_index[free_nodes] = np.arange(free_nodes.size)

    mass_w = (d * d / 4.0) * _node_incidence(free).ravel().astype(float)

    return TriMesh(grid, RasterSet(grid, free), tri_nodes, grad_x, grad_y,
                   d * d / 2.0, dirichlet_nodes, free_nodes, free_index,
                   mass_w, cls)


def triangle_gradients(M: TriMesh, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant per-triangle gradient (x and y parts) of the nodal vector flat."""
    vals = flat[M.tri_nodes]
    gx = np.einsum("tk,tk->t", M.grad_x, vals)
    gy = np.einsum("tk,tk->t", M.grad_y, vals)
    return gx, gy


# Kernels on full nodal vectors (length n_nodes), unchecked; the *_p
# functions below are their checked wrappers on GridFunctions.


def energy_flat(M: TriMesh, flat: np.ndarray, p: float) -> float:
    gx, gy = triangle_gradients(M, flat)
    g2 = gx * gx + gy * gy
    return float(M.area * np.sum(g2 ** (0.5 * p)))


def grad_energy_flat(M: TriMesh, flat: np.ndarray, p: float,
                     smoothing: float = 0.0) -> np.ndarray:
    gx, gy = triangle_gradients(M, flat)
    g2 = gx * gx + gy * gy
    if smoothing > 0.0:
        mag = np.maximum(np.sqrt(g2), smoothing)
        factor = M.area * p * mag ** (p - 2.0)
    else:
        factor = np.zeros_like(g2)
        nz = g2 > 0.0
        factor[nz] = M.area * p * g2[nz] ** (0.5 * p - 1.0)
    contrib = factor[:, None] * (gx[:, None] * M.grad_x + gy[:, None] * M.grad_y)
    full = np.zeros(M.n_nodes)
    np.add.at(full, M.tri_nodes.ravel(), contrib.ravel())
    return full[M.free_nodes]


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
    """Flat values of u after the p > 1 check (and, if pinned, the check
    that u vanishes on the Dirichlet nodes)."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    flat = M.flat_values(u)
    if pinned and M.dirichlet_nodes.size and \
            np.abs(flat[M.dirichlet_nodes]).max() > 1e-14:
        raise DirichletViolation("function is nonzero on a pinned node")
    return flat


def energy_p(M: TriMesh, u: GridFunction, p: float) -> float:
    """sum_T area * |grad u|_T^p with the constant per-triangle gradient."""
    return energy_flat(M, _checked(M, u, p, pinned=True), p)


def grad_energy_p(M: TriMesh, u: GridFunction, p: float,
                  smoothing: float = 0.0) -> np.ndarray:
    """Exact gradient of energy_p with respect to the free nodal values.

    With smoothing > 0 the |g|^(p-2) factor is evaluated at
    max(|g|, smoothing); the exact gradient (smoothing 0) stays finite for
    every p > 1 because |g|^(p-2) g -> 0 as g -> 0.
    """
    return grad_energy_flat(M, _checked(M, u, p, pinned=True), p, smoothing)


def mass_p(M: TriMesh, u: GridFunction, p: float) -> float:
    """Lumped sum_n w_n |u_n|^p over the mesh nodes."""
    return mass_flat(M, _checked(M, u, p, pinned=False), p)


def grad_mass_p(M: TriMesh, u: GridFunction, p: float) -> np.ndarray:
    """Gradient p * w_n |u_n|^(p-2) u_n on the free nodes."""
    return grad_mass_flat(M, _checked(M, u, p, pinned=False), p)


def mesh_dump(M: TriMesh) -> str:
    """Indexed node/triangle text dump (one record per line) for debugging."""
    nx1 = M.grid.nx + 1
    ox, oy = M.grid.origin
    d = M.grid.spacing
    lines = [f"mesh nodes={M.n_nodes} free={M.n_free} triangles={M.tri_nodes.shape[0]}"]
    used = np.unique(M.tri_nodes)
    for nid in used.tolist():
        ix, iy = nid % nx1, nid // nx1
        tag = "F" if M.free_index[nid] >= 0 else "D"
        lines.append(f"node {nid} {ox + ix * d:.17g} {oy + iy * d:.17g} {tag}")
    for t in range(M.tri_nodes.shape[0]):
        a, b, c = M.tri_nodes[t].tolist()
        lines.append(f"tri {t} {a} {b} {c}")
    return "\n".join(lines) + "\n"
