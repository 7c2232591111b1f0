"""Nodal function polarization, lumped norms, supports, non-expansivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlap.errors import OutOfBounds, SignedInput, SupportMismatch
from polarlap.geometry import (
    Disk,
    Grid,
    Polarizer,
    RasterSet,
    default_polarizer_pool,
    full_raster,
    polarize_set,
    rasterize,
)
from polarlap.rearrange import (
    GridFunction,
    _node_incidence,
    _sorted_sum,
    check_nonexpansive,
    lattice_p_norm,
    nodal_p_norm,
    node_support,
    node_weights,
    polarize_function,
    support_set,
)

from conftest import (
    brute_escapes,
    brute_polarize,
    nonsquare_grid,
    offcentre_polarizers,
    random_raster,
    unit_grid,
)


def _node_reflect_oracle(H, grid):
    """Float map from node (iy, ix) to the reflected node index or None."""
    d = grid.spacing
    out = {}
    for iy in range(grid.ny + 1):
        for ix in range(grid.nx + 1):
            x = grid.origin[0] + ix * d
            y = grid.origin[1] + iy * d
            sx, sy = H.reflect((x, y))
            jx = round((sx - grid.origin[0]) / d)
            jy = round((sy - grid.origin[1]) / d)
            if abs(sx - (grid.origin[0] + jx * d)) > 1e-9 * d or \
               abs(sy - (grid.origin[1] + jy * d)) > 1e-9 * d:
                raise AssertionError("reflection does not map nodes to nodes")
            if 0 <= jx <= grid.nx and 0 <= jy <= grid.ny:
                out[(iy, ix)] = (jy, jx)
            else:
                out[(iy, ix)] = None
    return out


def brute_polarize_function(H, u):
    """Independent per-node max/min evaluation with zero extension."""
    grid = u.grid
    refl = _node_reflect_oracle(H, grid)
    n = np.array(H.normal)
    d = grid.spacing
    out = np.zeros_like(u.values)
    for iy in range(grid.ny + 1):
        for ix in range(grid.nx + 1):
            x = grid.origin[0] + ix * d
            y = grid.origin[1] + iy * d
            side = x * n[0] + y * n[1] - H.offset
            j = refl[(iy, ix)]
            other = u.values[j] if j is not None else 0.0
            if abs(side) <= 1e-9 * d:
                out[iy, ix] = u.values[iy, ix]
            elif side < 0:
                out[iy, ix] = max(u.values[iy, ix], other)
            else:
                out[iy, ix] = min(u.values[iy, ix], other)
    return out


def _random_fn(rng, grid, density=1.0):
    v = rng.random(grid.node_shape)
    if density < 1.0:
        v = np.where(rng.random(grid.node_shape) < density, v, 0.0)
    return GridFunction(grid, v, full_raster(grid))


# ---------------------------------------------------------------------------
# polarize_function
# ---------------------------------------------------------------------------


def test_polarize_symmetric_function_unchanged(rng):
    g = unit_grid(8)
    v = rng.random((9, 9))
    v = np.minimum(v, v[:, ::-1])  # symmetric about the center column
    u = GridFunction(g, v, full_raster(g))
    H = Polarizer((1.0, 0.0), 0.5)
    assert np.array_equal(polarize_function(H, u).values, v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polarize_function_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    g = unit_grid(16)
    u = _random_fn(rng, g)
    for H in default_polarizer_pool(g):
        pu = polarize_function(H, u)
        assert np.array_equal(pu.values, brute_polarize_function(H, u))
    # off-centre lines for all eight normals on a non-square grid, with a
    # sparse function on a support that keeps clear of the window edge
    g2 = nonsquare_grid(rng)
    support = random_raster(rng, g2, float(rng.uniform(0.3, 0.8)), margin=2)
    near = node_weights(support) > 0
    v = np.where(near & (rng.random(g2.node_shape) < 0.6),
                 rng.random(g2.node_shape), 0.0)
    u2 = GridFunction(g2, v, support)
    for H in offcentre_polarizers(rng, g2):
        try:
            pu = polarize_function(H, u2)
        except OutOfBounds:
            assert (brute_escapes(H, g2, v > 0.0, nodes=True)
                    or brute_escapes(H, g2, support.mask))
        except SupportMismatch:
            # an exchanged value is positive at a node that touches no cell
            # of the polarized support
            pol = RasterSet(g2, brute_polarize(H, support))
            assert np.any((brute_polarize_function(H, u2) > 0.0)
                          & (node_weights(pol) == 0.0))
        else:
            assert not brute_escapes(H, g2, v > 0.0, nodes=True)
            assert np.array_equal(pu.values, brute_polarize_function(H, u2))
            assert np.array_equal(pu.support_mask.mask,
                                  brute_polarize(H, support))


def test_polarize_function_rejects_signed(rng):
    g = unit_grid(8)
    v = rng.random((9, 9)) - 0.5
    u = GridFunction(g, v, full_raster(g))
    with pytest.raises(SignedInput):
        polarize_function(Polarizer((1.0, 0.0), 0.5), u)


def test_polarize_function_escape_raises():
    g = unit_grid(8)
    v = np.zeros((9, 9))
    v[4, 8] = 1.0  # right edge node
    u = GridFunction(g, v, full_raster(g))
    H = Polarizer((1.0, 0.0), 2.0 / 8.0)  # mirror lands left of the window
    with pytest.raises(OutOfBounds):
        polarize_function(H, u)


def test_polarize_function_support_mismatch_raises():
    # support cells [1,1] and [2,2], u = 1 on every node touching them; the
    # exchange about x = 0.5 leaves u = 1 at node (ix=3, iy=2), which touches
    # no cell of the polarized support {[1,1], [2,1]}
    g = Grid((0.0, 0.0), 0.25, 4, 4)
    m = np.zeros(g.shape, dtype=bool)
    m[1, 1] = m[2, 2] = True
    support = RasterSet(g, m)
    u = GridFunction(g, (node_weights(support) > 0).astype(float), support)
    H = Polarizer((1.0, 0.0), 0.5)
    assert polarize_set(H, support).same_cells(
        RasterSet(g, np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0],
                               [0, 0, 0, 0]], dtype=bool)))
    with pytest.raises(SupportMismatch, match="outside the polarized support"):
        polarize_function(H, u)


def test_polarize_function_idempotent(rng):
    g = unit_grid(12)
    u = _random_fn(rng, g)
    for H in default_polarizer_pool(g):
        pu = polarize_function(H, u)
        assert np.array_equal(polarize_function(H, pu).values, pu.values)


def test_polarize_function_order_preserving(rng):
    g = unit_grid(10)
    u = _random_fn(rng, g)
    v = GridFunction(g, u.values + rng.random(g.node_shape), full_raster(g))
    for H in default_polarizer_pool(g):
        pu = polarize_function(H, u)
        pv = polarize_function(H, v)
        assert np.all(pu.values <= pv.values)


def test_indicator_correspondence(rng):
    # nodal sublevel identity: {P_H u > t} equals the node polarization of
    # {u > t}, the function/set correspondence in its exact discrete form
    g = unit_grid(12)
    for seed in range(5):
        r2 = np.random.default_rng(seed)
        u = _random_fn(r2, g, density=0.5)
        for H in default_polarizer_pool(g):
            pu = polarize_function(H, u)
            for thr in (0.0, 0.25):
                ind = GridFunction(g, (u.values > thr).astype(float),
                                   full_raster(g))
                lhs = node_support(pu, thr)
                rhs = polarize_function(H, ind).values > 0.5
                assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_zero_function():
    g = unit_grid(8)
    u = GridFunction(g, np.zeros((9, 9)), full_raster(g))
    assert nodal_p_norm(u, 2.0) == 0.0


def test_norm_constant_one_unit_square():
    g = unit_grid(16)
    u = GridFunction(g, np.ones((17, 17)), full_raster(g))
    assert abs(nodal_p_norm(u, 2.0) - 1.0) < 1e-12  # weights sum to the area


def test_weights_sum_to_area(rng):
    g = unit_grid(12)
    A = rasterize(Disk((0.5, 0.5), 0.3), g)
    w = node_weights(A)
    assert abs(w.sum() - A.count() * g.spacing ** 2) < 1e-12


@pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
def test_norm_preserved_exactly(rng, p):
    g = unit_grid(16)
    u = _random_fn(rng, g)
    for H in default_polarizer_pool(g):
        pu = polarize_function(H, u)
        assert nodal_p_norm(pu, p) == nodal_p_norm(u, p)


def test_norm_preserved_on_symmetric_subregion(rng):
    # support strictly inside the window and mirror-symmetric
    g = unit_grid(16)
    sup = rasterize(Disk((0.5, 0.5), 0.4), g)
    v = np.where(node_weights(sup) > 0, rng.random((17, 17)), 0.0)
    u = GridFunction(g, v, sup)
    H = Polarizer((1.0, 0.0), 0.5)
    pu = polarize_function(H, u)
    for p in (1.6, 2.0, 3.0):
        assert nodal_p_norm(pu, p) == nodal_p_norm(u, p)


def _int64_incidence(cell_mask):
    # reference count: each active cell adds one to its four corner nodes
    ny, nx = cell_mask.shape
    inc = np.zeros((ny + 1, nx + 1), dtype=np.int64)
    c = cell_mask.astype(np.int64)
    inc[:-1, :-1] += c
    inc[:-1, 1:] += c
    inc[1:, :-1] += c
    inc[1:, 1:] += c
    return inc


def _partial_functions(rng):
    # random partial supports on square and non-square grids, plus the
    # empty function
    out = []
    for g in (unit_grid(9), Grid((-0.5, 0.25), 0.125, 7, 4)):
        for density in (0.2, 0.6, 1.0):
            sup = random_raster(rng, g, density)
            v = np.where(_int64_incidence(sup.mask) > 0,
                         rng.random(g.node_shape) - 0.3, 0.0)
            out.append(GridFunction(g, v, sup))
        empty = RasterSet(g, np.zeros(g.shape, bool))
        out.append(GridFunction(g, np.zeros(g.node_shape), empty))
    return out


def test_node_incidence_matches_int64_reference(rng):
    for u in _partial_functions(rng):
        mask = u.support_mask.mask
        assert np.array_equal(_node_incidence(mask), _int64_incidence(mask))
        assert np.array_equal(u.incidence, _int64_incidence(mask))
        d = u.grid.spacing
        assert np.array_equal(node_weights(u.support_mask),
                              (d * d / 4.0) * _int64_incidence(mask))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_nodal_p_norm_bit_identical_to_weight_formula(rng, p):
    for u in _partial_functions(rng):
        want = _sorted_sum(node_weights(u.support_mask) * np.abs(u.values) ** p) ** (1.0 / p)
        assert nodal_p_norm(u, p) == want


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_norms_reject_non_finite_p(rng, p):
    # nan passed the p < 1 test; at inf nodal_p_norm returned 1.0
    u = _partial_functions(rng)[0]
    with pytest.raises(ValueError, match="p must"):
        nodal_p_norm(u, p)
    with pytest.raises(ValueError, match="p must"):
        lattice_p_norm(u.values, u.grid.spacing, p)


def test_gridfunction_incidence_read_only(rng):
    u = _partial_functions(rng)[0]
    with pytest.raises(ValueError):
        u.incidence[0, 0] = 3
    with pytest.raises(AttributeError):
        u.incidence = np.zeros_like(u.incidence)
    assert "incidence" not in repr(u)


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def test_support_zero_function_empty():
    g = unit_grid(8)
    u = GridFunction(g, np.zeros((9, 9)), full_raster(g))
    assert support_set(u).is_empty()


def test_support_indicator_halo():
    g = unit_grid(8)
    A = np.zeros((8, 8), bool)
    A[3:5, 3:5] = True
    pos = np.zeros((9, 9))
    pos[3:6, 3:6] = 1.0  # nodes touching A
    u = GridFunction(g, pos, RasterSet(g, A))
    S = support_set(u)
    # A plus the one-cell vertex halo
    expect = np.zeros((8, 8), bool)
    expect[2:6, 2:6] = True
    assert np.array_equal(S.mask, expect)


def test_support_mask_carried_by_polarization(rng):
    g = unit_grid(12)
    sup = rasterize(Disk((0.5, 0.5), 0.35), g)
    v = np.where(node_weights(sup) > 0, rng.random((13, 13)), 0.0)
    u = GridFunction(g, v, sup)
    for H in default_polarizer_pool(g):
        pu = polarize_function(H, u)
        assert pu.support_mask.same_cells(polarize_set(H, sup))


def test_support_halo_inclusion(rng):
    # cell-level supports only satisfy the one-sided inclusion: the halo of
    # the polarized function never exceeds the polarized halo
    g = unit_grid(12)
    for seed in range(20):
        r2 = np.random.default_rng(seed)
        u = _random_fn(r2, g, density=0.4)
        for H in default_polarizer_pool(g):
            pu = polarize_function(H, u)
            assert support_set(pu).is_subset(polarize_set(H, support_set(u)))


# ---------------------------------------------------------------------------
# non-expansivity
# ---------------------------------------------------------------------------


def test_nonexpansive_equal_functions(rng):
    g = unit_grid(10)
    u = _random_fn(rng, g)
    lhs, rhs, ok = check_nonexpansive(u, u, Polarizer((1.0, 0.0), 0.5), 2.0)
    assert lhs == 0.0 and rhs == 0.0 and ok


def test_nonexpansive_reflected_pair(rng):
    # polarization collapses a function and its reflection onto the same
    # rearrangement, so the polarized distance vanishes entirely
    g = unit_grid(10)
    u = _random_fn(rng, g)
    H = Polarizer((1.0, 0.0), 0.5)
    v = GridFunction(g, u.values[:, ::-1].copy(), full_raster(g))
    pu = polarize_function(H, u)
    pv = polarize_function(H, v)
    assert np.array_equal(pu.values, pv.values)
    lhs, rhs, ok = check_nonexpansive(u, v, H, 2.0)
    assert ok and lhs == 0.0 and rhs > 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_nonexpansive_random_pairs(seed):
    rng = np.random.default_rng(seed)
    g = unit_grid(12)
    u = _random_fn(rng, g, density=float(rng.uniform(0.3, 1.0)))
    v = _random_fn(rng, g, density=float(rng.uniform(0.3, 1.0)))
    p = float(rng.uniform(1.0, 4.0))
    for H in default_polarizer_pool(g):
        lhs, rhs, ok = check_nonexpansive(u, v, H, p)
        assert ok, (lhs, rhs, p)


def test_lattice_norm_scaling():
    g = unit_grid(8)
    v = np.ones((9, 9))
    assert abs(lattice_p_norm(v, g.spacing, 2.0) -
               np.sqrt(81 * g.spacing ** 2)) < 1e-12
