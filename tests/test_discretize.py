"""Mesh construction, Dirichlet nodes, energies and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlap.errors import DirichletViolation
from polarlap.geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Grid,
    PuncturedDomain,
    RasterSet,
    Rectangle,
    rasterize,
)
from polarlap.discretize import (
    energy_p,
    grad_energy_p,
    grad_mass_p,
    mass_p,
    mesh_dump,
    triangulate,
)
from conftest import (
    brute_dirichlet_nodes,
    centered_grid,
    random_punctured_domain,
    unit_grid,
)


def _square_domain(n, bc=DIRICHLET, allow_pn=False):
    g = unit_grid(n)
    outer = rasterize(Rectangle((0, 0), (1, 1), closed=True), g)
    return PuncturedDomain(outer, (), bc_outer=bc, allow_pure_neumann=allow_pn)


def _annulus_domain(n, bc_inner=DIRICHLET):
    g = centered_grid(n, 0.5)
    outer = rasterize(Disk((0.0, 0.0), 0.45), g)
    hole = rasterize(Disk((0.0, 0.0), 0.15, closed=True), g)
    return PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET,
                           bc_inner=bc_inner)


def _fn(mesh, flat):
    return mesh.function_from_flat(np.asarray(flat, dtype=float))


def _free_fn(mesh, rng, scale=1.0):
    flat = np.zeros(mesh.n_nodes)
    flat[mesh.free_nodes] = scale * rng.random(mesh.n_free)
    return _fn(mesh, flat)


# ---------------------------------------------------------------------------
# Dirichlet nodes against the edge-rule oracle
# ---------------------------------------------------------------------------


def _three_obstacle_domain():
    g = centered_grid(32, 0.5)
    outer = rasterize(Disk((0.0, 0.0), 0.45), g)
    obs = tuple(rasterize(Disk(c, 0.07, closed=True), g)
                for c in ((0.2, 0.0), (-0.1, 0.17), (-0.1, -0.17)))
    return PuncturedDomain(outer, obs, bc_obstacles=(DIRICHLET, NEUMANN,
                                                     DIRICHLET))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dirichlet_nodes_match_edge_rule(seed):
    D = random_punctured_domain(np.random.default_rng(seed))
    assert np.array_equal(triangulate(D).dirichlet_nodes,
                          brute_dirichlet_nodes(D))


@pytest.mark.parametrize("make", [
    lambda: _annulus_domain(24),
    lambda: _annulus_domain(24, bc_inner=NEUMANN),
    _three_obstacle_domain,
    lambda: _square_domain(8),
], ids=["annulus", "annulus_neumann_hole", "three_obstacles", "square"])
def test_dirichlet_nodes_match_edge_rule_on_shapes(make):
    D = make()
    assert np.array_equal(triangulate(D).dirichlet_nodes,
                          brute_dirichlet_nodes(D))


def test_pocket_rim_is_pinned():
    g = unit_grid(8)
    outer = np.ones((8, 8), bool)
    outer[4, 3] = False  # a pocket: one bounded cell of the complement
    D = PuncturedDomain(RasterSet(g, outer), (), bc_outer=NEUMANN,
                        bc_inner=DIRICHLET)
    m = triangulate(D)
    rim = [m.node_id(ix, iy) for iy in (4, 5) for ix in (3, 4)]
    assert m.dirichlet_nodes.tolist() == rim
    D = PuncturedDomain(RasterSet(g, outer), (), bc_outer=NEUMANN,
                        bc_inner=NEUMANN, allow_pure_neumann=True)
    assert triangulate(D).dirichlet_nodes.size == 0


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------


def test_triangulate_2x2_counts():
    g = Grid((0.0, 0.0), 0.5, 2, 2)
    D = PuncturedDomain(RasterSet(g, np.ones((2, 2), bool)), ())
    m = triangulate(D)
    assert m.tri_nodes.shape[0] == 8
    assert m.n_free == 1
    assert m.free_nodes[0] == m.node_id(1, 1)


def test_triangulate_neumann_hole_nodes_free():
    D = _annulus_domain(24, bc_inner=NEUMANN)
    m = triangulate(D)
    D2 = _annulus_domain(24, bc_inner=DIRICHLET)
    m2 = triangulate(D2)
    assert m.n_free > m2.n_free  # inner-ring nodes stay free


def test_triangulate_pure_neumann_square():
    D = _square_domain(8, bc=NEUMANN, allow_pn=True)
    m = triangulate(D)
    assert m.dirichlet_nodes.size == 0


def test_triangle_area_positive():
    m = triangulate(_square_domain(4))
    assert m.area == (0.25 ** 2) / 2.0


def test_mesh_dump_runs():
    m = triangulate(_square_domain(4))
    text = mesh_dump(m)
    assert text.startswith("mesh ")
    assert "tri 0 " in text


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_zero_function():
    m = triangulate(_square_domain(8))
    u = _fn(m, np.zeros(m.n_nodes))
    assert energy_p(m, u, 2.0) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_linear_function_exact(p):
    # u = x on the pure-Neumann unit square has |grad| = 1 everywhere
    D = _square_domain(8, bc=NEUMANN, allow_pn=True)
    m = triangulate(D)
    X, _ = m.grid.node_coords()
    u = _fn(m, X.ravel())
    assert energy_p(m, u, p) == pytest.approx(1.0, abs=1e-14)


def test_energy_dirichlet_violation():
    m = triangulate(_square_domain(8))
    flat = np.ones(m.n_nodes)
    with pytest.raises(DirichletViolation):
        energy_p(m, _fn(m, flat), 2.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_grad_energy_zero_at_zero():
    m = triangulate(_square_domain(8))
    u = _fn(m, np.zeros(m.n_nodes))
    assert np.all(grad_energy_p(m, u, 2.0) == 0.0)


def test_grad_energy_p2_is_stiffness_product(rng):
    # independent quadratic-form assembly straight from the mesh triangles
    m = triangulate(_annulus_domain(16))
    u = _free_fn(m, rng)
    flat = m.flat_values(u)
    K = np.zeros((m.n_nodes, m.n_nodes))
    for t in range(m.tri_nodes.shape[0]):
        nodes = m.tri_nodes[t]
        gx, gy = m.grad_x[t], m.grad_y[t]
        for a in range(3):
            for b in range(3):
                K[nodes[a], nodes[b]] += m.area * (gx[a] * gx[b] + gy[a] * gy[b])
    expected = 2.0 * (K @ flat)[m.free_nodes]
    assert np.allclose(grad_energy_p(m, u, 2.0), expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("p", [1.6, 2.0, 2.5, 3.0])
def test_grad_energy_matches_finite_differences(rng, p):
    m = triangulate(_annulus_domain(12))
    u = _free_fn(m, rng)
    g = grad_energy_p(m, u, p)
    flat = m.flat_values(u).copy()
    h = 1e-6
    for k in rng.choice(m.n_free, size=10, replace=False):
        nid = m.free_nodes[k]
        fp = flat.copy(); fp[nid] += h
        fm = flat.copy(); fm[nid] -= h
        fd = (energy_p(m, _fn(m, fp), p) - energy_p(m, _fn(m, fm), p)) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_grad_mass_matches_finite_differences(rng, p):
    m = triangulate(_annulus_domain(12))
    u = _free_fn(m, rng)
    g = grad_mass_p(m, u, p)
    flat = m.flat_values(u).copy()
    h = 1e-6
    for k in rng.choice(m.n_free, size=10, replace=False):
        nid = m.free_nodes[k]
        fp = flat.copy(); fp[nid] += h
        fm = flat.copy(); fm[nid] -= h
        fd = (mass_p(m, _fn(m, fp), p) - mass_p(m, _fn(m, fm), p)) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------


def test_mass_constant_one():
    D = _square_domain(8, bc=NEUMANN, allow_pn=True)
    m = triangulate(D)
    u = _fn(m, np.ones(m.n_nodes))
    assert mass_p(m, u, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_mass_constant_scales():
    D = _square_domain(8, bc=NEUMANN, allow_pn=True)
    m = triangulate(D)
    c, p = 1.7, 2.5
    u = _fn(m, c * np.ones(m.n_nodes))
    assert mass_p(m, u, p) == pytest.approx(c ** p, rel=1e-12)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.6, 2.0, 3.0])
def test_homogeneity(rng, p):
    m = triangulate(_annulus_domain(12))
    u = _free_fn(m, rng)
    t = 1.37
    ut = _fn(m, t * m.flat_values(u))
    assert energy_p(m, ut, p) == pytest.approx(t ** p * energy_p(m, u, p),
                                               rel=1e-12)
    assert mass_p(m, ut, p) == pytest.approx(t ** p * mass_p(m, u, p),
                                             rel=1e-12)


def test_energy_midpoint_convexity(rng):
    m = triangulate(_annulus_domain(12))
    for p in (1.6, 2.5, 3.0):
        for _ in range(5):
            u = _free_fn(m, rng)
            v = _free_fn(m, rng)
            mid = _fn(m, 0.5 * (m.flat_values(u) + m.flat_values(v)))
            assert energy_p(m, mid, p) <= \
                0.5 * (energy_p(m, u, p) + energy_p(m, v, p)) + 1e-12


def test_translation_invariance(rng):
    # the same domain shifted by whole cells gives identical energies
    g1 = centered_grid(16, 0.5)
    g2 = Grid((g1.origin[0] + 3 * g1.spacing, g1.origin[1]), g1.spacing, 16, 16)
    D1 = PuncturedDomain(rasterize(Disk((0.0, 0.0), 0.4), g1), ())
    D2 = PuncturedDomain(rasterize(Disk((3 * g1.spacing, 0.0), 0.4), g2), ())
    m1, m2 = triangulate(D1), triangulate(D2)
    flat1 = np.zeros(m1.n_nodes)
    flat1[m1.free_nodes] = rng.random(m1.n_free)
    flat2 = np.zeros(m2.n_nodes)
    flat2[m2.free_nodes] = flat1[m1.free_nodes]
    for p in (2.0, 3.0):
        assert energy_p(m1, _fn(m1, flat1), p) == \
            pytest.approx(energy_p(m2, _fn(m2, flat2), p), rel=1e-12)
        assert mass_p(m1, _fn(m1, flat1), p) == \
            pytest.approx(mass_p(m2, _fn(m2, flat2), p), rel=1e-12)


def test_axis_reflection_invariance_p2(rng):
    # mirrored domain and mirrored data: exact for the quadratic energy
    g = centered_grid(16, 0.5)
    outer = rasterize(Disk((0.1, 0.0), 0.35), g)
    D = PuncturedDomain(outer, ())
    m = triangulate(D)
    mirrored = rasterize(Disk((-0.1, 0.0), 0.35), g)
    Dm = PuncturedDomain(mirrored, ())
    mm = triangulate(Dm)
    flat = np.zeros(m.n_nodes)
    flat[m.free_nodes] = rng.random(m.n_free)
    vals = flat.reshape(g.node_shape)
    vals_m = vals[:, ::-1].copy()
    assert energy_p(m, _fn(m, flat), 2.0) == \
        pytest.approx(energy_p(mm, _fn(mm, vals_m.ravel()), 2.0), rel=1e-12)
