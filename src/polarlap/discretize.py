"""Piecewise-linear finite elements on punctured rasters: the mesh, the
discrete p-energy with its gradient and Hessian, K and the lumped mass.

`_SPLIT` states once how a free cell is split into two right triangles, and
every kernel takes its corner slices from it; a per-triangle quantity is a
stack of cell rasters, so the mesh keeps no triangle tables.  Dirichlet
families pin their nodes exactly (reduced system); Neumann families are
natural.  Sums run in a fixed order, so results are bit-reproducible.  One
raster stencil, `stiffness_matrix`, builds K and each Newton Hessian
(`hessian_flat`) as one gather on the mesh's index structure
(`TriMesh.stencil5`, `stencil7`), built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DirichletViolation
from .geometry import Grid, PuncturedDomain, RasterSet
from .rearrange import GridFunction, _node_incidence

# A cell's corner nodes as (dx, dy) offsets from its lower-left node, in the
# order every kernel visits them, each with the slice of a node raster at
# that corner of every cell.
_AT = {(dx, dy): (slice(dy, dy - 1 or None), slice(dx, dx - 1 or None))
       for dy in (0, 1) for dx in (0, 1)}

# The split of every free cell into two right triangles along its diagonal
# from the lower-left to the upper-right corner: per triangle, the x and y
# parts of its constant gradient, times the spacing, as differences
# u[plus] - u[minus] of two of its corners, given as (plus, minus).
_SPLIT = (
    (((1, 0), (0, 0)), ((1, 1), (1, 0))),  # lower triangle (00, 10, 11)
    (((1, 1), (0, 1)), ((0, 1), (0, 0))),  # upper triangle (00, 11, 01)
)

# Derived from the two above: _PHI[a][t] = (kx, ky) is the gradient of a's
# hat function on triangle t, times the spacing; _PAIRS lists (b - a, a, b,
# ((t, kx_a kx_b + ky_a ky_b) per shared triangle t)) for the corner pairs,
# a not after b, that share a triangle, in the order their couplings are
# summed, and a coupling buffer (see `StencilPattern`) has a row per
# offset b - a (_ROWS).
_PHI = {a: {t: tuple((a == plus) - (a == minus) for plus, minus in parts)
            for t, parts in enumerate(_SPLIT) if any(a in pm for pm in parts)}
        for a in _AT}
_PAIRS = sorted(
    (((b[0] - a[0], b[1] - a[1]), a, b, ks)
     for i, a in enumerate(_AT) for b in list(_AT)[i:]
     for ks in [tuple((t, kx * _PHI[b][t][0] + ky * _PHI[b][t][1])
                      for t, (kx, ky) in _PHI[a].items() if t in _PHI[b])]
     if ks), key=lambda pair: (pair[0][1], pair[0][0]))
_ROWS = tuple(dict.fromkeys(pair[0] for pair in _PAIRS))


def _lincomb(terms) -> tuple[int, np.ndarray | None]:
    """(sign, total) with sign * total the sum of k x over the (k, x) terms
    with k != 0, added left to right; the first term's sign is factored
    out, so no term is negated.  total is None if there are no terms."""
    sign, total = 0, None
    for k, x in terms:
        if k:
            x = x if abs(k) == 1 else abs(k) * x
            sign = sign or (1 if k > 0 else -1)
            total = x if total is None else (total + x if k * sign > 0 else total - x)
    return sign, total


def _accumulate(view: np.ndarray, terms) -> None:
    """view += the `_lincomb` of the terms, formed before it is added."""
    sign, total = _lincomb(terms)
    if total is not None:
        (np.add if sign > 0 else np.subtract)(view, total, out=view)


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangulation of the free region of a punctured domain:
    the free cells, each split into the triangles of `_SPLIT`, and the node
    sets; flat node ids are iy * (nx + 1) + ix."""

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

    @cached_property
    def stencil5(self) -> "StencilPattern":
        """Slots of the stiffness: self and the four edge neighbours."""
        return _stencil_pattern(self, rank_one=False)

    @cached_property
    def stencil7(self) -> "StencilPattern":
        """Slots of a Newton Hessian: every pair sharing a free triangle."""
        return _stencil_pattern(self, rank_one=True)

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

    The matrix's couplings are written into a coupling buffer, one row per
    neighbour offset in `_ROWS` (self, east, north and north-east), each a
    node raster after as many zeros as the largest offset (nx + 2).  CSR
    slot k holds buffer.ravel()[gather[k]] in column indices[k], row i's
    slots are indptr[i]:indptr[i + 1] in increasing column order, and
    diag[i] is row i's diagonal slot.  A slot is stored when some free
    triangle couples its two free nodes, whatever the values, so a matrix
    may store exact zeros.  indices and indptr are int32 as CSR keeps them;
    gather and diag are intp and used as fancy indices: an int32 index is
    converted on every call (3x slower at 1/64), and take is 7x slower with
    a read-only index.
    """

    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    diag: np.ndarray


def _coupling_buffer(M: TriMesh, dtype=float) -> tuple[np.ndarray, dict]:
    """A zero coupling buffer and {offset: its row as a node raster}."""
    lead = max(dy * (M.grid.nx + 1) + dx for dx, dy in _ROWS)
    buf = np.zeros((len(_ROWS), lead + M.n_nodes), dtype=dtype)
    return buf, dict(zip(_ROWS, buf[:, lead:].reshape(-1, *M.grid.node_shape)))


def _stencil_pattern(M: TriMesh, rank_one: bool) -> StencilPattern:
    # the couplings some free triangle makes, in the buffer's layout, and a
    # row's columns as (buffer row, offset); without the rank-one term a
    # pair couples only through a nonzero Laplacian coefficient
    linked, views = _coupling_buffer(M, bool)
    lead = linked.shape[1] - M.n_nodes
    stencil = set()
    for (dx, dy), a, _, ks in _PAIRS:
        if rank_one or any(k for _, k in ks):
            view = views[dx, dy][_AT[a]]
            view |= M.free_cells.mask
            # a neighbour before the node is read off that neighbour's row;
            # one past the window's edge is never linked
            r, f = _ROWS.index((dx, dy)), dy * (M.grid.nx + 1) + dx
            stencil |= {(r, -f), (r, f)}
    rows, offsets = np.array(sorted(stencil, key=lambda rf: rf[1])).T
    g = M.free_nodes[:, None] + lead
    gather = rows * linked.shape[1] + g + np.minimum(offsets, 0)
    free_index = np.full(M.n_nodes + 2 * lead, -1, dtype=np.int32)
    free_index[lead:-lead] = M.free_index
    cols = free_index[g + offsets]
    kept = linked.ravel()[gather] & (cols >= 0)
    indptr = np.zeros(M.n_free + 1, dtype=np.int32)
    np.cumsum(kept.sum(axis=1), out=indptr[1:])
    diag = indptr[:-1] + kept[:, offsets < 0].sum(axis=1)
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
    """Constant gradient (x and y parts) of the nodal vector flat on each
    triangle of `_SPLIT` (lower [0], upper [1]) of every cell, shape
    (2, ny, nx); 0 on cells that are not free."""
    u = flat.reshape(M.grid.node_shape)
    free = M.free_cells.mask
    g = np.zeros((2, len(_SPLIT)) + free.shape)  # axis, triangle, cell
    for t, parts in enumerate(_SPLIT):
        for axis, (plus, minus) in enumerate(parts):
            np.subtract(u[_AT[plus]], u[_AT[minus]], out=g[axis, t], where=free)
    g *= 1.0 / M.grid.spacing
    return g[0], g[1]


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
    # area p |g|^(p-2) g . grad phi_a, summed over the triangles at corner a
    power *= M.area * p / M.grid.spacing
    f = (power * gx, power * gy)
    full = np.zeros(M.grid.node_shape)
    for a, at in _AT.items():
        _accumulate(full[at], [(k, g[t]) for t, kxy in _PHI[a].items()
                               for k, g in zip(kxy, f)])
    return energy, full.ravel()[M.free_nodes]


def stiffness_matrix(M: TriMesh, weights=None, rank_one: tuple | None = None
                     ) -> sp.csr_matrix:
    """The free-node matrix of
    sum_T area (w_T grad phi_i . grad phi_j + c_T q_Ti q_Tj),
    q_Ti = (gx, gy)_T . grad phi_i (Strang-Fix, An Analysis of the Finite
    Element Method, 1973): weights[t] weighs triangle t of every cell (0 off
    the free cells; None for the free-cell mask, which gives K), and
    rank_one = (c, gx, gy) are rasters as from `triangle_gradients`.

    It is stored on `stencil5` without a rank-one term (K's couplings are
    nonzero on every slot), else on `stencil7`.  With s = area / spacing^2
    a diagonal entry of K is 2 s k, one rounding, for k free cells at the
    node; the diagonal that splits a cell couples only via the rank-one term.
    """
    if weights is None:  # K
        weights = (M.free_cells.mask.astype(float),) * 2
    # a pattern is built before, and the data gathered after, the rank-one
    # rasters exist: neither overlaps them in a Newton step's peak memory
    pattern = M.stencil5 if rank_one is None else M.stencil7
    inv = 1.0 / M.grid.spacing
    s = inv * inv * M.area
    buf, views = _coupling_buffer(M)
    for o, a, _, ks in _PAIRS:
        _accumulate(views[o][_AT[a]], [(k, weights[t]) for t, k in ks])
    buf *= s
    if rank_one is not None:
        c, gx, gy = rank_one
        c = s * c
        # per corner and triangle: q times the spacing as (sign, t), q = sign t
        q = {(a, t): _lincomb(zip(kxy, (gx[t], gy[t])))
             for a, phi in _PHI.items() for t, kxy in phi.items()}
        cq = {(a, t): c[t] * v for (a, t), (_, v) in q.items()}
        for o, a, b, ks in _PAIRS:
            _accumulate(views[o][_AT[a]], [(q[a, t][0] * q[b, t][0],
                                            cq[a, t] * q[b, t][1])
                                           for t, _ in ks])
        del c, q, cq
    return sp.csr_matrix((buf.ravel()[pattern.gather], pattern.indices,
                          pattern.indptr), shape=(M.n_free, M.n_free))


def hessian_flat(M: TriMesh, flat: np.ndarray, p: float) -> sp.csr_matrix:
    """Hessian of energy_p/p at the nodal vector flat, on the free nodes,
    with each triangle's |grad v|^2 raised by (1e-10 max|grad v|)^2, the
    maximum taken over the free triangles.

    Its local eigenvalues are then at least min(1, p-1) times the raised
    |grad v|^(p-2), so it is positive definite where the exact one is
    singular (p > 2) or unbounded (p < 2); the floor scales with v, so it
    does not depend on the size of the iterate.
    """
    tgx, tgy = triangle_gradients(M, flat)  # 0 off the free cells
    g2 = tgx * tgx + tgy * tgy
    # 1e-10 ** 2 differs from the float 1e-20 in its last bits, and the
    # eigenvalues the tests pin were computed with the former
    d2 = g2 + 1e-10 ** 2 * g2.max(initial=0.0)
    wts = np.zeros_like(d2)
    np.power(d2, 0.5 * p - 1.0, out=wts, where=M.free_cells.mask)
    fac = np.zeros_like(d2)  # (p - 2) d2^(p/2-2), without a second power
    np.divide(wts, d2, out=fac, where=M.free_cells.mask)
    fac *= p - 2.0
    return stiffness_matrix(M, wts, rank_one=(fac, tgx, tgy))


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
