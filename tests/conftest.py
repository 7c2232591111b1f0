"""Shared fixtures and independent brute-force oracles.

The oracles below work in floating-point point geometry (reflect the cell
center, look up the containing cell) and never touch the integer index
machinery inside the package, so they can arbitrate it.
"""

import numpy as np
import pytest

from polarlap.geometry import Grid, Polarizer, RasterSet


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
