"""Shared fixtures and independent brute-force oracles.

The oracles below work in floating-point point geometry (reflect the cell
center, look up the containing cell) and never touch the integer index
machinery inside the package, so they can arbitrate it.
"""

import numpy as np
import pytest

from polarlap.errors import MalformedDomain
from polarlap.geometry import (
    DIRICHLET,
    NEUMANN,
    Grid,
    Polarizer,
    PuncturedDomain,
    RasterSet,
)


def unit_grid(n: int) -> Grid:
    return Grid((0.0, 0.0), 1.0 / n, n, n)


def centered_grid(n: int, half_extent: float) -> Grid:
    d = 2.0 * half_extent / n
    return Grid((-half_extent, -half_extent), d, n, n)


def cell_of(grid: Grid, x: float, y: float):
    d = grid.spacing
    ix = int(np.floor((x - grid.origin[0]) / d))
    iy = int(np.floor((y - grid.origin[1]) / d))
    if 0 <= ix < grid.nx and 0 <= iy < grid.ny:
        return ix, iy
    return None


def brute_member(A: RasterSet, x: float, y: float) -> bool:
    c = cell_of(A.grid, x, y)
    return bool(A.mask[c[1], c[0]]) if c is not None else False


def brute_polarize(H: Polarizer, A: RasterSet, dual: bool = False) -> np.ndarray:
    """Per-cell float evaluation of the rearrangement formula."""
    X, Y = A.grid.cell_centers()
    out = np.zeros_like(A.mask)
    n = np.array(H.normal)
    tol = 1e-9 * A.grid.spacing
    for iy in range(A.grid.ny):
        for ix in range(A.grid.nx):
            x, y = X[iy, ix], Y[iy, ix]
            sx, sy = H.reflect((x, y))
            a = bool(A.mask[iy, ix])
            s = brute_member(A, sx, sy)
            side = x * n[0] + y * n[1] - H.offset
            if abs(side) <= tol:
                out[iy, ix] = a
            elif (side > 0) if dual else (side < 0):
                out[iy, ix] = a or s
            else:
                out[iy, ix] = a and s
    return out


def brute_escapes(H: Polarizer, grid: Grid, active: np.ndarray,
                  nodes: bool = False, dual: bool = False) -> bool:
    """True iff an active cell (node with nodes=True) strictly on the side
    the rearrangement empties has a mirrored center outside the window."""
    X, Y = grid.node_coords() if nodes else grid.cell_centers()
    n = np.array(H.normal)
    tol = 1e-9 * grid.spacing
    x0, y0, x1, y1 = grid.bbox()
    for iy, ix in zip(*np.nonzero(active)):
        x, y = X[iy, ix], Y[iy, ix]
        side = x * n[0] + y * n[1] - H.offset
        if not ((side < -tol) if dual else (side > tol)):
            continue
        sx, sy = H.reflect((x, y))
        if nodes:
            inside = x0 - tol <= sx <= x1 + tol and y0 - tol <= sy <= y1 + tol
        else:
            inside = cell_of(grid, sx, sy) is not None
        if not inside:
            return True
    return False


def offcentre_polarizers(rng, grid: Grid) -> list[Polarizer]:
    """One grid-compatible polarizer per compatible normal, each through a
    random point of the window: a half-cell point for the axis normals, a
    node for the diagonals."""
    s = 1.0 / np.sqrt(2.0)
    out = []
    for normal in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                   (s, s), (-s, -s), (s, -s), (-s, s)):
        step = 1 if 0.0 in normal else 2  # half-cell units
        kx = step * int(rng.integers(1, 2 * grid.nx // step))
        ky = step * int(rng.integers(1, 2 * grid.ny // step))
        x = grid.origin[0] + 0.5 * kx * grid.spacing
        y = grid.origin[1] + 0.5 * ky * grid.spacing
        out.append(Polarizer(normal, x * normal[0] + y * normal[1]))
    return out


def nonsquare_grid(rng) -> Grid:
    nx = int(rng.integers(5, 13))
    ny = nx + int(rng.choice([-2, -1, 1, 2, 3]))
    return Grid((float(rng.integers(-3, 3)), 0.25 * float(rng.integers(-3, 3))),
                0.5, nx, ny)


def brute_reflect(H: Polarizer, A: RasterSet) -> np.ndarray:
    """Float membership of the mirrored set at each cell center."""
    X, Y = A.grid.cell_centers()
    out = np.zeros_like(A.mask)
    for iy in range(A.grid.ny):
        for ix in range(A.grid.nx):
            sx, sy = H.reflect((X[iy, ix], Y[iy, ix]))
            out[iy, ix] = brute_member(A, sx, sy)
    return out


def random_raster(rng, grid: Grid, density: float = 0.4,
                  margin: int = 0) -> RasterSet:
    m = rng.random(grid.shape) < density
    if margin:
        m[:margin, :] = False
        m[-margin:, :] = False
        m[:, :margin] = False
        m[:, -margin:] = False
    return RasterSet(grid, m)


def random_connected_raster(rng, grid: Grid) -> RasterSet:
    """Random 4-connected blob grown from the center cell."""
    ny, nx = grid.shape
    m = np.zeros((ny, nx), dtype=bool)
    cy, cx = ny // 2, nx // 2
    m[cy, cx] = True
    frontier = [(cy, cx)]
    target = int(rng.integers(nx * ny // 8, nx * ny // 3))
    count = 1
    while frontier and count < target:
        iy, ix = frontier[int(rng.integers(len(frontier)))]
        moves = [(iy + 1, ix), (iy - 1, ix), (iy, ix + 1), (iy, ix - 1)]
        rng.shuffle(moves)
        for (jy, jx) in moves:
            if 0 <= jy < ny and 0 <= jx < nx and not m[jy, jx]:
                m[jy, jx] = True
                frontier.append((jy, jx))
                count += 1
                break
        else:
            frontier.remove((iy, ix))
    return RasterSet(grid, m)


def brute_dirichlet_nodes(D: PuncturedDomain) -> np.ndarray:
    """Sorted flat ids of the endpoints of every edge between a free cell
    and a complement cell on a Dirichlet family.

    The complement, padded by one cell around the window, is flood-filled
    cell by cell: the component holding a pad cell carries bc_outer, one
    holding an obstacle's cell that obstacle's label, any other bc_inner.
    """
    free = D.free().mask
    ny, nx = free.shape

    def is_free(iy, ix):
        return 0 <= iy < ny and 0 <= ix < nx and bool(free[iy, ix])

    def label(iy, ix):
        if not (0 <= iy < ny and 0 <= ix < nx):
            return D.bc_outer
        for ob, bc in zip(D.obstacles, D.bc_obstacles):
            if ob.mask[iy, ix]:
                return bc
        return None

    bc_of = {}
    for start in [(iy, ix) for iy in range(-1, ny + 1)
                  for ix in range(-1, nx + 1)]:
        if start in bc_of or is_free(*start):
            continue
        comp, stack, bc = {start}, [start], None
        while stack:
            iy, ix = stack.pop()
            bc = bc or label(iy, ix)
            for c in ((iy + 1, ix), (iy - 1, ix), (iy, ix + 1), (iy, ix - 1)):
                if (-1 <= c[0] <= ny and -1 <= c[1] <= nx and c not in comp
                        and not is_free(*c)):
                    comp.add(c)
                    stack.append(c)
        for c in comp:
            bc_of[c] = bc or D.bc_inner

    pinned = set()
    for iy, ix in zip(*np.nonzero(free)):
        iy, ix = int(iy), int(ix)
        for nb, edge in (((iy - 1, ix), ((ix, iy), (ix + 1, iy))),
                         ((iy + 1, ix), ((ix, iy + 1), (ix + 1, iy + 1))),
                         ((iy, ix - 1), ((ix, iy), (ix, iy + 1))),
                         ((iy, ix + 1), ((ix + 1, iy), (ix + 1, iy + 1)))):
            if bc_of.get(nb) == DIRICHLET:
                pinned.update(y * (nx + 1) + x for x, y in edge)
    return np.array(sorted(pinned), dtype=np.int64)


def random_punctured_domain(rng) -> PuncturedDomain:
    """Random valid domain on 6 to 15 cells a side: an outer set with
    random cells removed (pockets inside, notches at the rim), up to three
    small obstacles inside a free ring, and random labels, pure Neumann
    allowed half of the time.  Draws again until the domain validates."""
    while True:
        nx, ny = (int(v) for v in rng.integers(6, 16, size=2))
        grid = Grid((0.0, 0.0), 1.0, nx, ny)
        outer = rng.random((ny, nx)) > 0.15
        obstacles = []
        for _ in range(int(rng.integers(0, 4))):
            iy, ix = int(rng.integers(1, ny - 2)), int(rng.integers(1, nx - 2))
            ob = np.zeros((ny, nx), bool)
            ob[iy:iy + 2, ix:ix + 2] = rng.random((2, 2)) < 0.6
            ob[iy, ix] = True
            outer[iy - 1:iy + 3, ix - 1:ix + 3] = True  # the free ring
            obstacles.append(RasterSet(grid, ob))
        labels = rng.choice([DIRICHLET, NEUMANN], size=2 + len(obstacles))
        try:
            return PuncturedDomain(
                RasterSet(grid, outer), tuple(obstacles), str(labels[0]),
                str(labels[1]), tuple(str(b) for b in labels[2:]),
                allow_pure_neumann=bool(rng.random() < 0.5))
        except MalformedDomain:
            continue


def _triangle_tables(mesh):
    """The triangles of a mesh written out one by one: each free cell, in
    row-major order, gives its lower triangle (00, 10, 11) and then its
    upper triangle (00, 11, 01).  Returns the (T, 3) flat node ids and the
    (T, 3) coefficients of the constant x- and y-gradient, a reference
    for the raster kernels that shares none of their slicing."""
    nx1 = mesh.grid.nx + 1
    inv = 1.0 / mesh.grid.spacing
    ys, xs = np.nonzero(mesh.free_cells.mask)
    n00 = ys * nx1 + xs
    tri_nodes = np.empty((2 * n00.size, 3), dtype=np.int64)
    tri_nodes[0::2] = np.stack([n00, n00 + 1, n00 + nx1 + 1], axis=1)
    tri_nodes[1::2] = np.stack([n00, n00 + nx1 + 1, n00 + nx1], axis=1)
    grad_x = np.empty(tri_nodes.shape)
    grad_y = np.empty(tri_nodes.shape)
    grad_x[0::2] = (-inv, inv, 0.0)
    grad_y[0::2] = (0.0, -inv, inv)
    grad_x[1::2] = (0.0, inv, -inv)
    grad_y[1::2] = (-inv, 0.0, inv)
    return tri_nodes, grad_x, grad_y


def _triangle_assembly(mesh, tri_nodes, local):
    """COO -> CSR assembly of the (T, 3, 3) local blocks on the free
    nodes; duplicates are summed in the conversion's own order."""
    import scipy.sparse as sp
    fi = mesh.free_index
    rows = fi[np.repeat(tri_nodes, 3, axis=1).ravel()]
    cols = fi[np.tile(tri_nodes, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_free
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(n, n)).tocsr()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
