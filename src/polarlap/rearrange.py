"""Polarization of nodal grid functions and the discrete norm toolbox.

Functions live on grid nodes and are zero-extended outside their support
region.  Node reflections of compatible polarizers are exact integer maps,
so polarization is a pairwise max/min exchange and the lumped norms are
permutation-invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBounds, SignedInput, SupportMismatch
from .geometry import Grid, Polarizer, RasterSet, Reflection, polarize_set


@dataclass(frozen=True)
class GridFunction:
    """Real nodal values plus the raster region the function lives on.

    Values at nodes not touching any support cell must vanish (zero
    extension); this is checked at construction.  incidence is the
    read-only count of support cells at each node, counted there once.
    """

    grid: Grid
    values: np.ndarray
    support_mask: RasterSet
    incidence: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.node_shape:
            raise ValueError(f"values shape {v.shape} != node shape {self.grid.node_shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("nodal values must be finite")
        if self.support_mask.grid != self.grid:
            raise ValueError("support mask grid differs from function grid")
        incidence = _node_incidence(self.support_mask.mask)
        if np.any(v[incidence == 0] != 0.0):
            raise ValueError("values must vanish at nodes not touching the support")
        v = v.copy()
        v.setflags(write=False)
        incidence.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "incidence", incidence)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0.0))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def _node_incidence(cell_mask: np.ndarray) -> np.ndarray:
    """Number of active cells touching each node (0..4, uint8)."""
    ny, nx = cell_mask.shape
    c = np.zeros((ny + 2, nx + 2), dtype=np.uint8)  # the mask, zero-padded
    c[1:-1, 1:-1] = cell_mask
    return c[:-1, :-1] + c[:-1, 1:] + c[1:, :-1] + c[1:, 1:]


def node_weights(support: RasterSet) -> np.ndarray:
    """Lumped node weights spacing^2 * incidence / 4."""
    d = support.grid.spacing
    return (d * d / 4.0) * _node_incidence(support.mask)


def polarize_function(H: Polarizer, u: GridFunction) -> GridFunction:
    """Nodewise max on the H side, min on the complement side, paired by
    the node reflection; support rearranged with the set polarization.

    Only nonnegative inputs are accepted: the first eigenfunctions this
    module serves are one-signed, and zero extension then pairs cleanly
    with max/min.  Raises OutOfBounds when a positive value would be
    rearranged outside the grid window, and SupportMismatch when the nodal
    exchange leaves a positive value at a node that touches no cell of the
    polarized support (which is rearranged cellwise).
    """
    if not u.is_nonnegative():
        raise SignedInput("polarize_function requires a nonnegative function")
    refl = Reflection.of(H, u.grid, nodes=True)
    if refl.escapes(u.values > 0.0):
        raise OutOfBounds("function polarization escapes the grid window")
    values = refl.exchange(u.values)
    support = polarize_set(H, u.support_mask)
    try:
        return GridFunction(u.grid, values, support)
    except ValueError:
        # the exchanged values have the grid's shape and are finite, so the
        # check that fails is the one for a value off the support
        raise SupportMismatch(
            "polarized function is positive at a node outside the polarized support"
        ) from None


def _sorted_sum(contrib: np.ndarray) -> float:
    # summing in sorted order makes the result invariant under any
    # permutation of equal multisets of terms, which turns the pairing
    # argument into bit-exact norm preservation
    return float(np.sort(contrib, axis=None).sum())


def _check_exponent(p: float):
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    if not math.isfinite(p):
        raise ValueError("p must be finite")


def nodal_p_norm(u: GridFunction, p: float) -> float:
    """(sum_n w_n |u_n|^p)^(1/p) with lumped support weights."""
    _check_exponent(p)
    d = u.grid.spacing
    w = (d * d / 4.0) * u.incidence
    return _sorted_sum(w * np.abs(u.values) ** p) ** (1.0 / p)


def lattice_p_norm(values: np.ndarray, spacing: float, p: float) -> float:
    """(sum_n spacing^2 |v_n|^p)^(1/p): zero-extension weights, every node
    counted with full incidence."""
    _check_exponent(p)
    return _sorted_sum(spacing * spacing * np.abs(values) ** p) ** (1.0 / p)


def support_set(u: GridFunction, threshold: float = 0.0) -> RasterSet:
    """Cells having at least one vertex with value above the threshold.

    Carries a one-cell vertex halo around the nodal positivity set; for a
    nodal indicator of a raster A this returns A together with the cells
    sharing a vertex with A.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    pos = u.values > threshold
    cells = pos[:-1, :-1] | pos[:-1, 1:] | pos[1:, :-1] | pos[1:, 1:]
    return RasterSet(u.grid, cells)


def node_support(u: GridFunction, threshold: float = 0.0) -> np.ndarray:
    """Boolean node array {u > threshold}; the halo-free support carrier."""
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    return u.values > threshold


def check_nonexpansive(u: GridFunction, v: GridFunction, H: Polarizer,
                       p: float) -> tuple[float, float, bool]:
    """Distance comparison ||P_H u - P_H v||_p <= ||u - v||_p.

    Both norms use the zero-extension lattice weights (full spacing^2 per
    node): with uniform weights the classical two-point inequality applies
    pair by pair, so the comparison is rigorous for every nonnegative pair.
    """
    if u.grid != v.grid:
        raise ValueError("functions must share a grid")
    pu = polarize_function(H, u)
    pv = polarize_function(H, v)
    d = u.grid.spacing
    lhs = lattice_p_norm(pu.values - pv.values, d, p)
    rhs = lattice_p_norm(u.values - v.values, d, p)
    return lhs, rhs, bool(lhs <= rhs + 1e-12)
