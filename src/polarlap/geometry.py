"""Polarization (two-point rearrangement) algebra on rasterized planar sets.

Sets are boolean cell indicators over a uniform square grid.  A
grid-compatible polarizer reduces to an integer reflection of cell/node
indices, so every set identity in this module is evaluated as exact boolean
algebra; no floating-point geometry enters the rearrangement loops.

Half-unit frame used internally: cell (ix, iy) carries integer coordinates
(2*ix+1, 2*iy+1) and node (ix, iy) carries (2*ix, 2*iy), both measured in
units of spacing/2 from the grid origin.  Compatible reflections act on
these integers.

The compatible polarizers are listed once, in the axis table _AXES: each
axis is a lattice functional a*U + b*V, its normals +-(a, b)/|(a, b)| are
two of the eight compatible ones, and the line {a*U + b*V = t} is
compatible when t is an integer multiple of a^2 + b^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .errors import (
    DegeneratePolarizer,
    IncompatiblePolarizer,
    MalformedDomain,
    NotAdmissible,
    OutOfBounds,
    PoolViolation,
)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_NORMAL_TOL = 1e-9
_LINE_TOL = 1e-9

_CONN4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


# ---------------------------------------------------------------------------
# grid and raster sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform square-cell grid; cells (ix, iy) with 0 <= ix < nx, 0 <= iy < ny."""

    origin: tuple[float, float]
    spacing: float
    nx: int
    ny: int

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "spacing", float(self.spacing))
        if not self.spacing > 0.0:
            raise ValueError("grid spacing must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 cells")

    @property
    def shape(self) -> tuple[int, int]:
        """Mask layout (ny, nx); index masks as mask[iy, ix]."""
        return (self.ny, self.nx)

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.ny + 1, self.nx + 1)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.spacing
        x = self.origin[0] + (np.arange(self.nx) + 0.5) * d
        y = self.origin[1] + (np.arange(self.ny) + 0.5) * d
        return np.meshgrid(x, y)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.spacing
        x = self.origin[0] + np.arange(self.nx + 1) * d
        y = self.origin[1] + np.arange(self.ny + 1) * d
        return np.meshgrid(x, y)

    def bbox(self) -> tuple[float, float, float, float]:
        ox, oy = self.origin
        return (ox, oy, ox + self.nx * self.spacing, oy + self.ny * self.spacing)


@dataclass(frozen=True)
class RasterSet:
    """Boolean indicator of a planar set: cell membership by cell-center test."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise ValueError(f"mask shape {m.shape} != grid shape {self.grid.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    def count(self) -> int:
        return int(self.mask.sum())

    def is_empty(self) -> bool:
        return not self.mask.any()

    def same_cells(self, other: "RasterSet") -> bool:
        return self.grid == other.grid and bool(np.array_equal(self.mask, other.mask))

    def is_subset(self, other: "RasterSet") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def union(self, other: "RasterSet") -> "RasterSet":
        return RasterSet(self.grid, self.mask | other.mask)

    def intersect(self, other: "RasterSet") -> "RasterSet":
        return RasterSet(self.grid, self.mask & other.mask)

    def minus(self, other: "RasterSet") -> "RasterSet":
        return RasterSet(self.grid, self.mask & ~other.mask)

    def complement(self) -> "RasterSet":
        """Complement within the grid window."""
        return RasterSet(self.grid, ~self.mask)


def full_raster(grid: Grid) -> RasterSet:
    return RasterSet(grid, np.ones(grid.shape, dtype=bool))


# ---------------------------------------------------------------------------
# polarizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polarizer:
    """Open affine half-space H = {x : x . normal < offset}, |normal| = 1."""

    normal: tuple[float, float]
    offset: float

    def __post_init__(self):
        n = (float(self.normal[0]), float(self.normal[1]))
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))
        # written as not (... <= tol) so that NaN and infinite components fail
        if not abs(math.hypot(*n) - 1.0) <= 1e-12:
            raise ValueError("polarizer normal must be a unit vector (within 1e-12)")
        if not math.isfinite(self.offset):
            raise ValueError("polarizer offset must be finite")

    def reflect(self, x) -> np.ndarray:
        """Mirror image of x across the boundary line of H (any unit normal)."""
        x = np.asarray(x, dtype=float)
        n = np.array(self.normal)
        return x - 2.0 * (x @ n - self.offset) * n

    def signed_distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ np.array(self.normal) - self.offset)

    def grid_compatible(self, grid: Grid) -> bool:
        try:
            _reduce(self, grid)
        except IncompatiblePolarizer:
            return False
        return True


# axis -> lattice functional (a, b): a*U + b*V on half-unit coordinates
_AXES = {"x": (1, 0), "y": (0, 1), "diag": (1, 1), "antidiag": (1, -1)}


def _normal(axis: str, sign: int = 1) -> tuple[float, float]:
    """Unit normal sign*(a, b)/|(a, b)|; integer products keep -0.0 out."""
    a, b = _AXES[axis]
    r = math.sqrt(a * a + b * b)
    return (sign * a / r, sign * b / r)


# the eight compatible normals as (unit normal, axis, greater), +(a, b)
# before -(a, b) for every axis; H = {a*U + b*V > t} for -(a, b)
_NORMALS = tuple((_normal(axis, sign), axis, sign < 0)
                 for axis in _AXES for sign in (1, -1))


def normal_axis(normal) -> tuple[str, bool]:
    """(axis, greater) of a compatible unit normal; greater for -(a, b)."""
    hx, hy = float(normal[0]), float(normal[1])
    for (cx, cy), axis, greater in _NORMALS:
        if abs(hx - cx) <= _NORMAL_TOL and abs(hy - cy) <= _NORMAL_TOL:
            return axis, greater
    raise IncompatiblePolarizer(
        f"direction {(hx, hy)} is not axis-aligned or at 45 degrees")


def compatible_normal(normal) -> tuple[float, float]:
    """The exact compatible unit normal that normal_axis matches."""
    axis, greater = normal_axis(normal)
    return _normal(axis, -1 if greater else 1)


@dataclass(frozen=True)
class _Reduced:
    """Integer form of a compatible polarizer on a given grid.

    kind is the axis whose functional a*U + b*V the line fixes at t; H is
    the side {coord > t} when greater else {coord < t}.
    """

    kind: str
    t: int
    greater: bool


def _reduce(H: Polarizer, grid: Grid) -> _Reduced:
    axis, greater = normal_axis(H.normal)
    a, b = _AXES[axis]
    r = math.sqrt(a * a + b * b)
    ox, oy = grid.origin
    tf = 2.0 * ((-r if greater else r) * H.offset - a * ox - b * oy) / grid.spacing
    t = round(tf)
    if abs(tf - t) > _LINE_TOL:
        raise IncompatiblePolarizer(
            f"line position {tf} is not aligned to half-cell units")
    if t % (a * a + b * b) != 0:
        raise IncompatiblePolarizer(
            "diagonal reflection line must pass through grid nodes")
    return _Reduced(axis, int(t), greater)


def _offset_from_t(red: _Reduced, grid: Grid) -> float:
    """Inverse of _reduce: the offset of the polarizer red stands for."""
    a, b = _AXES[red.kind]
    ox, oy = grid.origin
    v = (a * ox + b * oy + 0.5 * red.t * grid.spacing) / math.sqrt(a * a + b * b)
    return -v if red.greater else v


def _axis_slices(s: int, c: int, n_dst: int, n_src: int) -> tuple[slice, slice]:
    """Destination and source slices of the index map j = s*i + c (s = +-1)
    from i in [0, n_dst) onto j in [0, n_src); both empty when no i lands."""
    if s > 0:
        lo, hi = max(0, -c), min(n_dst, n_src - c)
    else:
        lo, hi = max(0, c - n_src + 1), min(n_dst, c + 1)
    if lo >= hi:
        return slice(0, 0), slice(0, 0)
    if s > 0:
        return slice(lo, hi), slice(lo + c, hi + c)
    stop = c - hi
    return slice(lo, hi), slice(c - lo, stop if stop >= 0 else None, -1)


class Reflection:
    """A compatible reflection as an exact flip/transpose of the raster.

    In half-unit coordinates every compatible reflection is one integer
    affine map of (U, V): x (2t - U, V), y (U, 2t - V), diag (t - V, t - U)
    and antidiag (V + t, U - t), on cells (off = 1) or nodes (off = 0).  On
    the index grid it maps each axis by j = c - i (a flip with an integer
    shift) or j = i + c, the diagonal kinds after a transpose, so the sites
    whose image stays in the window form one rectangle, valid, and gather
    is one slice copy into it.  coord is the reduced linear functional and
    in_h / beyond split the sites off the line by side; all three are
    read-only full-grid views of 1-D vectors over the lines of the kind,
    built on first use.
    """

    def __init__(self, red: _Reduced, grid: Grid, nodes: bool = False):
        off = 0 if nodes else 1
        self._shape = ny, nx = grid.node_shape if nodes else grid.shape
        self._red = red
        t = red.t
        a, b = _AXES[red.kind]
        # site (iy, ix) lies on line k = a*ix + b*iy + k0, whose coordinate
        # a*U + b*V is 2*(k - k0) + (a + b)*off
        k0 = ny - 1 if b < 0 else 0
        n_lines = a * (nx - 1) + abs(b) * (ny - 1) + 1
        lines = 2 * (np.arange(n_lines) - k0) + (a + b) * off
        lines.setflags(write=False)
        self._lines = lines
        # per destination axis (s, c) of j = s*i + c on the source raster,
        # which the diagonal kinds read transposed
        self._transpose, maps = {
            "x": (False, ((1, 0), (-1, t - off))),
            "y": (False, ((-1, t - off), (1, 0))),
            "diag": (True, ((-1, t // 2 - off), (-1, t // 2 - off))),
            "antidiag": (True, ((1, t // 2), (1, -(t // 2)))),
        }[red.kind]
        src_shape = (nx, ny) if self._transpose else self._shape
        (d0, s0), (d1, s1) = (_axis_slices(s, c, n, m) for (s, c), n, m
                              in zip(maps, self._shape, src_shape))
        self._dst, self._src = (d0, d1), (s0, s1)

    @classmethod
    def of(cls, H: Polarizer, grid: Grid, nodes: bool = False) -> "Reflection":
        return cls(_reduce(H, grid), grid, nodes)

    def _spread(self, per_line: np.ndarray) -> np.ndarray:
        """Read-only full-grid view of a read-only vector over the lines."""
        a, b = _AXES[self._red.kind]
        step = per_line.itemsize
        view = np.ndarray(self._shape, per_line.dtype, buffer=per_line,
                          strides=(abs(b) * step, a * step))
        # that view reads k = a*ix + |b|*iy; for b < 0 turning it upside down
        # gives k = ix - iy + ny - 1
        return view[::-1] if b < 0 else view

    def _side(self, test) -> np.ndarray:
        side = test(self._lines, self._red.t)
        side.setflags(write=False)
        return self._spread(side)

    @cached_property
    def coord(self) -> np.ndarray:
        return self._spread(self._lines)

    @cached_property
    def in_h(self) -> np.ndarray:
        return self._side(np.greater if self._red.greater else np.less)

    @cached_property
    def beyond(self) -> np.ndarray:
        return self._side(np.less if self._red.greater else np.greater)

    @cached_property
    def valid(self) -> np.ndarray:
        valid = np.zeros(self._shape, dtype=bool)
        valid[self._dst] = True
        return valid

    def gather(self, a: np.ndarray) -> np.ndarray:
        """a at the image of each site; zero where the image leaves the window."""
        out = np.zeros(a.shape, a.dtype)
        out[self._dst] = (a.T if self._transpose else a)[self._src]
        return out

    def escapes(self, active: np.ndarray, dual: bool = False) -> bool:
        """True iff an active site on the losing side has its image outside."""
        lost = active & (self.in_h if dual else self.beyond)
        lost[self._dst] = False
        return bool(lost.any())

    def exchange(self, a: np.ndarray, dual: bool = False) -> np.ndarray:
        """Two-point exchange: max on the winning side, min on the other."""
        ref = self.gather(a)
        on_h, off_h = (np.minimum, np.maximum) if dual else (np.maximum, np.minimum)
        out = off_h(a, ref)
        on_h(a, ref, out=out, where=self.in_h)
        return out

    def invariant(self, mask: np.ndarray, dual: bool = False) -> bool:
        """True iff the exchange leaves the boolean mask unchanged: every
        active site on the losing side has an active image in the window."""
        src = self.in_h if dual else self.beyond
        return not bool(np.any(mask & src & ~self.gather(mask)))


# ---------------------------------------------------------------------------
# point reflection and set polarization
# ---------------------------------------------------------------------------


def reflect_point(H: Polarizer, x) -> np.ndarray:
    """Mirror x across the boundary line of H."""
    return H.reflect(x)


def polarize_set(H: Polarizer, A: RasterSet) -> RasterSet:
    """Two-point rearrangement pushing A into H.

    Cellwise evaluation of [(A | sA) & H] | [A & sA] where sA is the
    reflected set.  Raises OutOfBounds when an active cell would be
    rearranged outside the grid window (result not representable).
    """
    refl = Reflection.of(H, A.grid)
    if refl.escapes(A.mask):
        raise OutOfBounds("polarization escapes the grid window")
    return RasterSet(A.grid, refl.exchange(A.mask))


def dual_polarize_set(H: Polarizer, A: RasterSet) -> RasterSet:
    """Companion rearrangement pushing A into the complement of H."""
    refl = Reflection.of(H, A.grid)
    if refl.escapes(A.mask, dual=True):
        raise OutOfBounds("dual polarization escapes the grid window")
    return RasterSet(A.grid, refl.exchange(A.mask, dual=True))


def is_polarization_invariant(H: Polarizer, A: RasterSet) -> bool:
    """Subset test sigma(A) & H <= A, equivalent to polarize_set(H, A) == A.

    Reflections landing outside the window count as points of sigma(A)
    that are not in A, so no escape handling is needed here.
    """
    return Reflection.of(H, A.grid).invariant(A.mask)


def is_dual_polarization_invariant(H: Polarizer, A: RasterSet) -> bool:
    """Subset test sigma(A) & H^c <= A, equivalent to dual_polarize_set(H, A) == A."""
    return Reflection.of(H, A.grid).invariant(A.mask, dual=True)


def reflect_set(H: Polarizer, A: RasterSet) -> RasterSet:
    """Mirror image of the raster; raises OutOfBounds if it leaves the window."""
    refl = Reflection.of(H, A.grid)
    if np.any(A.mask & ~refl.valid):
        raise OutOfBounds("reflected set leaves the grid window")
    return RasterSet(A.grid, refl.gather(A.mask))


def is_reflection_symmetric(H: Polarizer, A: RasterSet) -> bool:
    """True iff sigma_H(A) = A cellwise (images outside the window count)."""
    refl = Reflection.of(H, A.grid)
    m = A.mask
    if np.any(m & ~refl.valid):
        return False
    return bool(np.array_equal(refl.gather(m), m))


def witness_sets(H: Polarizer, omega: RasterSet) -> tuple[RasterSet, RasterSet]:
    """Invariance witnesses A_H = s(O) & O^c & H and B_H = O & s(O^c) & H.

    A_H is nonempty iff the polarization moves omega; B_H is nonempty iff
    the polarization differs from the reflected set.
    """
    refl = Reflection.of(H, omega.grid)
    m = omega.mask
    if refl.escapes(m):
        raise OutOfBounds("witness set A_H has members outside the grid window")
    mref = refl.gather(m)
    a_h = refl.in_h & ~m & mref
    b_h = refl.in_h & m & ~mref
    return RasterSet(omega.grid, a_h), RasterSet(omega.grid, b_h)


# ---------------------------------------------------------------------------
# symmetry predicates
# ---------------------------------------------------------------------------

def axis_polarizer(axis: str, offset: float) -> Polarizer:
    """Half-space {x . n < offset} for the named axis normal n = (a, b)/|(a, b)|."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    return Polarizer(_normal(axis), offset)


def steiner_diagnostics(A: RasterSet, axis: str, offset: float):
    """(is_steiner_symmetric, violating_offset_or_None).

    Sweeps the grid-compatible parallel lines inside the window: the set
    must be invariant under polarization toward the line from above the
    pivot and under dual polarization from below (finitely many exact
    tests).  The first test can fail only on a line below the set's
    largest coordinate and the second only above its smallest, so the
    sweep covers the lines from min(smallest, pivot) to
    max(largest, pivot); clipping to the set alone would skip the lines
    between a pivot outside the set and the set.
    """
    red0 = _reduce(axis_polarizer(axis, offset), A.grid)  # H = {coord < t0}
    if not A.mask.any():
        return True, None
    coord = Reflection(red0, A.grid).coord
    inside = coord[A.mask]
    lo = max(int(coord.min()) - 2, min(int(inside.min()), red0.t))
    hi = min(int(coord.max()) + 2, max(int(inside.max()), red0.t))
    a, b = _AXES[axis]
    step = a * a + b * b  # diagonal lines must pass through nodes
    start = lo + (red0.t - lo) % step
    for t in range(start, hi + 1, step):
        red = _Reduced(axis, t, False)
        refl = Reflection(red, A.grid)
        # lines at or past the pivot use the primal test, lines at or before
        # it the dual test
        if (t >= red0.t and not refl.invariant(A.mask)) or \
                (t <= red0.t and not refl.invariant(A.mask, dual=True)):
            return False, _offset_from_t(red, A.grid)
    return True, None


def is_steiner_symmetric(A: RasterSet, axis: str, offset: float) -> bool:
    """True iff every line section orthogonal to the axis is a centered run."""
    ok, _ = steiner_diagnostics(A, axis, offset)
    return ok


def directionally_convex(A: RasterSet, axis: str) -> bool:
    """Every line of cells parallel to the named direction is one contiguous run."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}")
    a, b = _AXES[axis]
    # the lines of (a, b) are the rows of m for x and y, its diagonals else
    m = A.mask.T if a == 0 else A.mask[::-1] if b < 0 else A.mask
    lines = m if a * b == 0 else [np.diagonal(m, offset=off)
                                  for off in range(-m.shape[0] + 1, m.shape[1])]
    for line in lines:
        idx = np.flatnonzero(line)
        if idx.size and idx[-1] - idx[0] + 1 != idx.size:
            return False
    return True


def is_foliated_schwarz(A: RasterSet, a, eta, pool: Sequence[Polarizer]) -> bool:
    """Necessary test for foliated Schwarz symmetry about the ray a + R+ eta.

    Checks P^H(A) == sigma_H(A) cellwise for every polarizer in the pool.
    The pool is finite, so this is a necessary condition only.
    """
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    for H in pool:
        n = np.array(H.normal)
        if abs(float(a @ n) - H.offset) > 1e-9:
            raise PoolViolation("anchor point is not on the polarizer boundary")
        if float(eta @ n) >= -1e-12:
            raise PoolViolation("axis ray is not inside the open half-space")
        refl = Reflection.of(H, A.grid)
        if not np.array_equal(refl.exchange(A.mask, dual=True),
                              refl.gather(A.mask)):
            return False
        # reflections of active cells escaping the window on the open-H side
        # belong to sigma(A) but not to the dual polarization
        if refl.escapes(A.mask):
            return False
    return True


def fss_polarizer_pool(a, eta, grid: Grid) -> list[Polarizer]:
    """Grid-compatible polarizers with a on the boundary and a + R+ eta inside.

    The pool keeps _NORMALS order; at most four of the eight normals pass
    the ray test (three for an axis-aligned eta).
    """
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(eta).all()):
        raise ValueError("pool point and direction must be finite")
    pool = []
    for normal, _, _ in _NORMALS:
        n = np.array(normal)
        if float(eta @ n) >= -1e-12:
            continue
        H = Polarizer(normal, float(a @ n))
        if H.grid_compatible(grid):
            pool.append(H)
    return pool


def default_polarizer_pool(grid: Grid) -> list[Polarizer]:
    """Polarizers whose reflection maps the grid window onto itself.

    These are the lines through the window center for every axis and
    orientation, the diagonals only on square grids; the induced cell map
    is a permutation of the window, so every set identity is exactly
    testable against them.
    """
    pool = []
    for normal, axis, greater in _NORMALS:
        a, b = _AXES[axis]
        if a * b == 0 or grid.nx == grid.ny:
            # the center has half-unit coordinates (nx, ny)
            red = _Reduced(axis, a * grid.nx + b * grid.ny, greater)
            pool.append(Polarizer(normal, _offset_from_t(red, grid)))
    return pool


# ---------------------------------------------------------------------------
# rotation polarizer and obstacle motions
# ---------------------------------------------------------------------------


def _rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_polarizer(a, eta, s: float, t: float) -> Polarizer:
    """Half-space whose reflection carries the rotated ray at angle acos(t)
    onto the ray at angle acos(s), anchored at a with a + R+ eta inside.
    """
    if not (-1.0 <= s <= 1.0 and -1.0 <= t <= 1.0):
        raise ValueError("rotation parameters must lie in [-1, 1]")
    if s == t:
        raise DegeneratePolarizer("rotation angles coincide; normal vanishes")
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    rs = _rotation_matrix(math.acos(s)) @ eta
    rt = _rotation_matrix(math.acos(t)) @ eta
    h = rs - rt
    if s > t:
        h = -h  # orient so that eta . h < 0, putting the reference ray in H
    norm = float(np.hypot(*h))
    if norm < 1e-15:
        raise DegeneratePolarizer("rotation angles coincide; normal vanishes")
    n = h / norm
    return Polarizer((float(n[0]), float(n[1])), float(a @ n))


# ---------------------------------------------------------------------------
# shape specifications and rasterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float
    closed: bool = False

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")


@dataclass(frozen=True)
class Rectangle:
    lo: tuple[float, float]
    hi: tuple[float, float]
    closed: bool = False

    def __post_init__(self):
        lo = (min(self.lo[0], self.hi[0]), min(self.lo[1], self.hi[1]))
        hi = (max(self.lo[0], self.hi[0]), max(self.lo[1], self.hi[1]))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (hi[0] > lo[0] and hi[1] > lo[1]):
            raise ValueError("rectangle must have positive extent")


@dataclass(frozen=True)
class Rhombus:
    """|x - cx| + |y - cy| <= 2 * half_diagonal (or < when open)."""

    center: tuple[float, float]
    half_diagonal: float
    closed: bool = False

    def __post_init__(self):
        if not self.half_diagonal > 0:
            raise ValueError("rhombus half-diagonal must be positive")


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_axes: tuple[float, float]
    angle: float = 0.0
    closed: bool = False

    def __post_init__(self):
        if not (self.semi_axes[0] > 0 and self.semi_axes[1] > 0):
            raise ValueError("ellipse semi-axes must be positive")


@dataclass(frozen=True)
class UnionShape:
    members: tuple[ShapeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("union shape needs at least one member")


ShapeSpec = Union[Disk, Rectangle, Rhombus, Ellipse, UnionShape]


def shape_membership(shape: ShapeSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pointwise membership; closed shapes use <=, open use <."""
    if isinstance(shape, Disk):
        q = (X - shape.center[0]) ** 2 + (Y - shape.center[1]) ** 2
        r2 = shape.radius ** 2
        return q <= r2 if shape.closed else q < r2
    if isinstance(shape, Rectangle):
        (x0, y0), (x1, y1) = shape.lo, shape.hi
        if shape.closed:
            return (X >= x0) & (X <= x1) & (Y >= y0) & (Y <= y1)
        return (X > x0) & (X < x1) & (Y > y0) & (Y < y1)
    if isinstance(shape, Rhombus):
        q = np.abs(X - shape.center[0]) + np.abs(Y - shape.center[1])
        lim = 2.0 * shape.half_diagonal
        return q <= lim if shape.closed else q < lim
    if isinstance(shape, Ellipse):
        c, s = math.cos(shape.angle), math.sin(shape.angle)
        dx, dy = X - shape.center[0], Y - shape.center[1]
        u = (c * dx + s * dy) / shape.semi_axes[0]
        v = (-s * dx + c * dy) / shape.semi_axes[1]
        q = u * u + v * v
        return q <= 1.0 if shape.closed else q < 1.0
    if isinstance(shape, UnionShape):
        out = shape_membership(shape.members[0], X, Y)
        for member in shape.members[1:]:
            out = out | shape_membership(member, X, Y)
        return out
    raise TypeError(f"unknown shape {type(shape).__name__}")


def shape_bbox(shape: ShapeSpec) -> tuple[float, float, float, float]:
    if isinstance(shape, Disk):
        (cx, cy), r = shape.center, shape.radius
        return (cx - r, cy - r, cx + r, cy + r)
    if isinstance(shape, Rectangle):
        return (*shape.lo, *shape.hi)
    if isinstance(shape, Rhombus):
        (cx, cy), w = shape.center, 2.0 * shape.half_diagonal
        return (cx - w, cy - w, cx + w, cy + w)
    if isinstance(shape, Ellipse):
        a, b = shape.semi_axes
        c, s = math.cos(shape.angle), math.sin(shape.angle)
        hx = math.hypot(a * c, b * s)
        hy = math.hypot(a * s, b * c)
        (cx, cy) = shape.center
        return (cx - hx, cy - hy, cx + hx, cy + hy)
    if isinstance(shape, UnionShape):
        boxes = [shape_bbox(m) for m in shape.members]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))
    raise TypeError(f"unknown shape {type(shape).__name__}")


def rasterize(shape: ShapeSpec, grid: Grid) -> RasterSet:
    """Cell-center sampling of the shape; deterministic."""
    bx0, by0, bx1, by1 = shape_bbox(shape)
    gx0, gy0, gx1, gy1 = grid.bbox()
    tol = 1e-9 * grid.spacing
    if bx0 < gx0 - tol or by0 < gy0 - tol or bx1 > gx1 + tol or by1 > gy1 + tol:
        raise OutOfBounds("shape bounding box exceeds the grid window")
    X, Y = grid.cell_centers()
    return RasterSet(grid, shape_membership(shape, X, Y))


def _moved(shape: ShapeSpec, point, theta: float = 0.0) -> ShapeSpec:
    """shape with every reference point p sent to point(p) and an ellipse's
    angle increased by theta; rectangles and rhombi cannot turn."""
    if isinstance(shape, UnionShape):
        return UnionShape(tuple(_moved(m, point, theta) for m in shape.members))
    if isinstance(shape, (Rectangle, Rhombus)) and theta != 0.0:
        raise ValueError(
            f"{type(shape).__name__} cannot represent a rotated pose; "
            "use an ellipse or a union of disks")
    if isinstance(shape, Disk):
        return Disk(point(shape.center), shape.radius, shape.closed)
    if isinstance(shape, Rectangle):
        return Rectangle(point(shape.lo), point(shape.hi), shape.closed)
    if isinstance(shape, Rhombus):
        return Rhombus(point(shape.center), shape.half_diagonal, shape.closed)
    if isinstance(shape, Ellipse):
        return Ellipse(point(shape.center), shape.semi_axes,
                       shape.angle + theta, shape.closed)
    raise TypeError(f"unknown shape {type(shape).__name__}")


def translated_obstacle(shape: ShapeSpec, h, s: float) -> ShapeSpec:
    """Shape shifted by s * h."""
    h = np.asarray(h, dtype=float)
    dx, dy = float(s * h[0]), float(s * h[1])
    return _moved(shape, lambda p: (p[0] + dx, p[1] + dy))


def rotated_obstacle(shape: ShapeSpec, a, s: float) -> ShapeSpec:
    """Shape turned counter-clockwise about a by the angle acos(s).

    Disks and ellipses transform exactly; rectangles and rhombi are only
    accepted at the identity rotation (s = 1), which returns shape itself.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError("rotation parameter must lie in [-1, 1]")
    theta = math.acos(s)
    if theta == 0.0:
        return shape
    a = np.asarray(a, dtype=float)
    R = _rotation_matrix(theta)

    def point(p):
        q = a + R @ (np.asarray(p, dtype=float) - a)
        return (float(q[0]), float(q[1]))

    return _moved(shape, point, theta)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def connected_components(A: RasterSet) -> tuple[int, np.ndarray]:
    """4-connectivity components; labels 1..count in scan order, 0 outside."""
    raw, n = ndimage.label(A.mask, structure=_CONN4)
    if n == 0:
        return 0, raw
    flat = raw.ravel()
    order = flat[flat > 0]
    _, first = np.unique(order, return_index=True)
    remap = np.zeros(n + 1, dtype=raw.dtype)
    for new, old in enumerate(order[np.sort(first)], start=1):
        remap[old] = new
    return int(n), remap[raw]


def _dilate4(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


# ---------------------------------------------------------------------------
# punctured domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PuncturedDomain:
    """Outer raster set minus closed obstacle rasters, with boundary labels.

    bc_obstacles optionally overrides bc_inner per obstacle (needed for the
    rotation scenarios where one hole is Neumann and another Dirichlet);
    bc_inner remains the label for holes without an override, including
    pockets of the outer set.
    """

    outer: RasterSet
    obstacles: tuple
    bc_outer: str = DIRICHLET
    bc_inner: str = DIRICHLET
    bc_obstacles: Optional[tuple] = None
    allow_pure_neumann: bool = False

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.bc_obstacles is None:
            object.__setattr__(self, "bc_obstacles",
                               tuple(self.bc_inner for _ in self.obstacles))
        else:
            object.__setattr__(self, "bc_obstacles", tuple(self.bc_obstacles))
        for bc in (self.bc_outer, self.bc_inner, *self.bc_obstacles):
            if bc not in (DIRICHLET, NEUMANN):
                raise ValueError(f"boundary label must be dirichlet or neumann, got {bc!r}")
        if len(self.bc_obstacles) != len(self.obstacles):
            raise ValueError("bc_obstacles length must match obstacles")
        self._validate()

    def _validate(self):
        g = self.outer.grid
        outer = self.outer.mask
        if not outer.any():
            raise MalformedDomain("outer set is empty")
        # cells whose four neighbours lie in the outer set; a cell on the
        # window's border has a neighbour outside the window
        core = ~_dilate4(~outer)
        core[0] = core[-1] = core[:, 0] = core[:, -1] = False
        for k, ob in enumerate(self.obstacles):
            if ob.grid != g:
                raise MalformedDomain("obstacle grid differs from outer grid")
            if ob.is_empty():
                raise MalformedDomain(f"obstacle {k} is empty")
            if np.any(ob.mask & ~core):
                raise MalformedDomain(
                    f"obstacle {k} is not separated from the outer boundary "
                    "by a free cell ring")
        for i in range(len(self.obstacles)):
            di = _dilate4(self.obstacles[i].mask)
            for j in range(i + 1, len(self.obstacles)):
                if np.any(di & self.obstacles[j].mask):
                    raise MalformedDomain(
                        f"obstacles {i} and {j} share a cell or an edge")
        free = self.free().mask
        if not free.any():
            raise MalformedDomain("no free cells remain")
        n, _ = connected_components(RasterSet(g, free))
        if n != 1:
            raise MalformedDomain(f"free region has {n} components, expected 1")
        # only pockets can still carry a Dirichlet label; label them only then
        if not (self.allow_pure_neumann or self.bc_outer == DIRICHLET
                or DIRICHLET in self.bc_obstacles
                or self.dirichlet_cells().any()):
            raise MalformedDomain(
                "no Dirichlet boundary family; pass allow_pure_neumann=True "
                "to request the pure-Neumann problem")

    def dirichlet_cells(self) -> np.ndarray:
        """Cells of the complement of the free region whose boundary family
        is Dirichlet, as a mask of the grid padded by one cell on each side.

        The padded complement is split into edge-connected components: the
        unbounded one carries bc_outer, one holding an obstacle's cells
        carries that obstacle's label, and a pocket of the outer set carries
        bc_inner.  The ring rule keeps every obstacle cell's neighbours free
        or in the same obstacle, so no component holds two obstacles or
        reaches the outer boundary.
        """
        labels, n = ndimage.label(np.pad(~self.free().mask, 1,
                                         constant_values=True),
                                  structure=_CONN4)
        dirichlet = np.full(n + 1, self.bc_inner == DIRICHLET)
        dirichlet[0] = False  # free cells
        dirichlet[labels[0, 0]] = self.bc_outer == DIRICHLET
        for ob, bc in zip(self.obstacles, self.bc_obstacles):
            dirichlet[labels[1:-1, 1:-1][ob.mask]] = bc == DIRICHLET
        return dirichlet[labels]

    @property
    def grid(self) -> Grid:
        return self.outer.grid

    def obstacle_union(self) -> RasterSet:
        m = np.zeros(self.grid.shape, dtype=bool)
        for ob in self.obstacles:
            m |= ob.mask
        return RasterSet(self.grid, m)

    def free(self) -> RasterSet:
        return RasterSet(self.grid, self.outer.mask & ~self.obstacle_union().mask)


def polarize_punctured(H: Polarizer, D: PuncturedDomain) -> PuncturedDomain:
    """Polarize the outer set and dual-polarize the obstacle union.

    Requires the reflected obstacle cells to stay inside the outer set
    (admissible polarizer); the rearranged obstacle union is re-split into
    edge-connected components carrying their source boundary labels.
    """
    grid = D.grid
    refl = Reflection.of(H, grid)
    union = D.obstacle_union().mask
    if np.any(union & ~refl.valid):
        raise NotAdmissible("reflected obstacle leaves the grid window")
    if np.any(union & ~refl.gather(D.outer.mask)):
        raise NotAdmissible("reflected obstacle leaves the outer set")

    outer_new = polarize_set(H, D.outer)

    labels = np.full(grid.shape, -1, dtype=np.int32)
    for k, ob in enumerate(D.obstacles):
        labels[ob.mask] = k
    lref = refl.gather(labels + 1) - 1  # -1 stays -1 outside
    out = refl.exchange(union, dual=True)
    lab_out = np.full(grid.shape, -1, dtype=np.int32)
    lab_out[out & union] = labels[out & union]
    moved = out & ~union
    lab_out[moved] = lref[moved]

    n, comp = connected_components(RasterSet(grid, out))
    new_obstacles = []
    new_bcs = []
    for c in range(1, n + 1):
        sel = comp == c
        srcs = np.unique(lab_out[sel])
        bcs = {D.bc_obstacles[k] for k in srcs}
        if len(bcs) != 1:
            raise MalformedDomain(
                "dual polarization merged obstacles with different boundary labels")
        new_obstacles.append(RasterSet(grid, sel))
        new_bcs.append(bcs.pop())

    return PuncturedDomain(outer_new, tuple(new_obstacles), D.bc_outer,
                           D.bc_inner, tuple(new_bcs), D.allow_pure_neumann)
