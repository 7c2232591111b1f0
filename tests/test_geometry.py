"""Exact set-polarization algebra, symmetry predicates, obstacle motions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlap.errors import (
    DegeneratePolarizer,
    IncompatiblePolarizer,
    MalformedDomain,
    NotAdmissible,
    OutOfBounds,
)
from polarlap.geometry import (
    Disk,
    Ellipse,
    Grid,
    Polarizer,
    PuncturedDomain,
    RasterSet,
    Rectangle,
    Rhombus,
    UnionShape,
    connected_components,
    default_polarizer_pool,
    dual_polarize_set,
    fss_polarizer_pool,
    is_dual_polarization_invariant,
    is_foliated_schwarz,
    is_polarization_invariant,
    is_reflection_symmetric,
    is_steiner_symmetric,
    polarize_punctured,
    polarize_set,
    rasterize,
    reflect_point,
    reflect_set,
    rotated_obstacle,
    rotation_polarizer,
    steiner_diagnostics,
    translated_obstacle,
    witness_sets,
)

from conftest import (
    brute_escapes,
    brute_polarize,
    brute_reflect,
    centered_grid,
    nonsquare_grid,
    offcentre_polarizers,
    random_connected_raster,
    random_raster,
    unit_grid,
)

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# reflect_point
# ---------------------------------------------------------------------------


def test_reflect_axis():
    H = Polarizer((1.0, 0.0), 0.0)
    assert np.allclose(reflect_point(H, (1.0, 2.0)), (-1.0, 2.0))


def test_reflect_fixes_boundary():
    H = Polarizer((1.0, 0.0), 0.0)
    assert np.allclose(reflect_point(H, (0.0, 5.0)), (0.0, 5.0))


def test_reflect_diagonal_example():
    H = Polarizer((1.0 / SQ2, 1.0 / SQ2), 0.0)
    assert np.allclose(reflect_point(H, (1.0, 0.0)), (0.0, -1.0), atol=1e-12)


def test_reflect_involution_random(rng):
    # double application returns the point, for arbitrary unit normals
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        H = Polarizer((np.cos(theta), np.sin(theta)), rng.normal())
        x = rng.normal(size=2)
        assert np.allclose(reflect_point(H, reflect_point(H, x)), x, atol=1e-12)


# ---------------------------------------------------------------------------
# polarize_set / dual_polarize_set against the float oracle
# ---------------------------------------------------------------------------


def test_polarize_inside_h_is_identity(rng):
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[2:5, 0:3] = True  # left block
    A = RasterSet(g, m)
    H = Polarizer((1.0, 0.0), 0.5)  # center line; A entirely inside H
    assert polarize_set(H, A).same_cells(A)


def test_polarize_symmetric_is_identity():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[3, :] = True  # a symmetric row stripe
    A = RasterSet(g, m)
    H = Polarizer((1.0, 0.0), 0.5)
    assert polarize_set(H, A).same_cells(A)
    assert dual_polarize_set(H, A).same_cells(A)


def test_polarize_matches_bruteforce_8x8(rng):
    g = Grid((0.0, 0.0), 1.0, 8, 8)
    A = random_raster(rng, g, 0.5)
    H = Polarizer((1.0, 0.0), 4.0)  # s = 4 * spacing
    assert np.array_equal(polarize_set(H, A).mask, brute_polarize(H, A))
    assert np.array_equal(dual_polarize_set(H, A).mask,
                          brute_polarize(H, A, dual=True))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polarize_matches_bruteforce_pool(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    g = Grid((float(rng.integers(-3, 3)), float(rng.integers(-3, 3))),
             0.5, n, n)
    A = random_raster(rng, g, float(rng.uniform(0.2, 0.7)))
    for H in default_polarizer_pool(g):
        assert np.array_equal(polarize_set(H, A).mask, brute_polarize(H, A))
        assert np.array_equal(dual_polarize_set(H, A).mask,
                              brute_polarize(H, A, dual=True))
    # off-centre lines for all eight normals on a non-square grid
    g2 = nonsquare_grid(rng)
    B = random_raster(rng, g2, float(rng.uniform(0.2, 0.7)), margin=2)
    for H in offcentre_polarizers(rng, g2):
        for dual, op in ((False, polarize_set), (True, dual_polarize_set)):
            try:
                got = op(H, B).mask
            except OutOfBounds:
                assert brute_escapes(H, g2, B.mask, dual=dual)
            else:
                assert not brute_escapes(H, g2, B.mask, dual=dual)
                assert np.array_equal(got, brute_polarize(H, B, dual=dual))


def test_incompatible_polarizer_rejected():
    g = unit_grid(8)
    A = RasterSet(g, np.ones((8, 8), bool))
    with pytest.raises(IncompatiblePolarizer):
        polarize_set(Polarizer((1.0, 0.0), 0.3), A)  # 0.3 not k * spacing / 2
    with pytest.raises(IncompatiblePolarizer):
        theta = 0.3
        polarize_set(Polarizer((math.cos(theta), math.sin(theta)), 0.0), A)


def test_polarize_escape_raises():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[4, 7] = True  # rightmost cell
    A = RasterSet(g, m)
    # line left of center pushes the cell past the left window edge
    H = Polarizer((1.0, 0.0), 2.0 / 8.0)
    with pytest.raises(OutOfBounds):
        polarize_set(H, A)


# ---------------------------------------------------------------------------
# identity suite (randomized, exact)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_identity_suite(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 17))
    g = unit_grid(n)
    A = random_raster(rng, g, float(rng.uniform(0.2, 0.7)))
    C = RasterSet(g, A.mask | (rng.random(g.shape) < 0.3))  # superset of A
    for H in default_polarizer_pool(g):
        P = polarize_set(H, A)
        Pd = dual_polarize_set(H, A)
        # measure preservation
        assert P.count() == A.count() == Pd.count()
        # monotonicity
        assert polarize_set(H, A).is_subset(polarize_set(H, C))
        # sub-distributivity
        PC = polarize_set(H, C)
        assert polarize_set(H, A.intersect(C)).is_subset(P.intersect(PC))
        assert P.union(PC).is_subset(polarize_set(H, A.union(C)))
        # reflection identities
        sA = reflect_set(H, A)
        assert polarize_set(H, sA).same_cells(P)
        assert reflect_set(H, P).same_cells(Pd)
        assert reflect_set(H, Pd).same_cells(P)
        # complement duality
        assert polarize_set(H, A.complement()).same_cells(Pd.complement())
        # idempotence
        assert polarize_set(H, P).same_cells(P)
        assert dual_polarize_set(H, Pd).same_cells(Pd)
        # invariance characterizations, both directions
        assert is_polarization_invariant(H, A) == P.same_cells(A)
        assert is_dual_polarization_invariant(H, A) == Pd.same_cells(A)
        assert P.same_cells(Pd) == sA.same_cells(A)


def test_reflect_set_matches_bruteforce(rng):
    g = unit_grid(10)
    A = random_raster(rng, g, 0.4)
    for H in default_polarizer_pool(g):
        assert np.array_equal(reflect_set(H, A).mask, brute_reflect(H, A))


# ---------------------------------------------------------------------------
# witness sets
# ---------------------------------------------------------------------------


def test_witness_omega_inside_h():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[2:6, 0:3] = True
    Om = RasterSet(g, m)
    H = Polarizer((1.0, 0.0), 0.5)
    a_h, b_h = witness_sets(H, Om)
    assert a_h.is_empty()
    assert b_h.same_cells(Om)  # Om inside open H, mirrors land outside Om


def test_witness_symmetric_both_empty():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[:, 2:6] = True
    Om = RasterSet(g, m)
    H = Polarizer((1.0, 0.0), 0.5)
    a_h, b_h = witness_sets(H, Om)
    assert a_h.is_empty() and b_h.is_empty()


def test_witness_oblique_ellipse_strict():
    g = centered_grid(32, 1.0)
    Om = rasterize(Ellipse((0.05, 0.1), (0.7, 0.3), angle=0.9), g)
    H = Polarizer((1.0, 0.0), 0.0)
    a_h, b_h = witness_sets(H, Om)
    assert not a_h.is_empty() and not b_h.is_empty()
    P = polarize_set(H, Om)
    sOm = reflect_set(H, Om)
    assert not P.same_cells(Om) and not P.same_cells(sOm)


# ---------------------------------------------------------------------------
# punctured domains
# ---------------------------------------------------------------------------


def _annulus_domain(grid, R=0.45, r=0.12, center=(0.0, 0.0)):
    outer = rasterize(Disk((0.0, 0.0), R), grid)
    hole = rasterize(Disk(center, r, closed=True), grid)
    return PuncturedDomain(outer, (hole,), bc_outer="dirichlet",
                           bc_inner="dirichlet")


def test_polarize_punctured_symmetric_unchanged():
    g = centered_grid(24, 0.5)
    D = _annulus_domain(g)
    H = Polarizer((1.0, 0.0), 0.0)  # through the center
    D2 = polarize_punctured(H, D)
    assert D2.outer.same_cells(D.outer)
    assert D2.obstacle_union().same_cells(D.obstacle_union())


def test_polarize_punctured_moves_obstacle_and_identity():
    g = centered_grid(32, 0.5)
    D = _annulus_domain(g, R=0.45, r=0.08)
    s = 2 * g.spacing
    H = Polarizer((1.0, 0.0), s)
    D2 = polarize_punctured(H, D)
    # obstacle lands at the mirrored position, farther right
    expected = rasterize(Disk((2 * s, 0.0), 0.08, closed=True), g)
    assert D2.obstacle_union().same_cells(expected)
    # punctured identity, cellwise via the independent oracle
    free2 = D2.free()
    lhs = brute_polarize(H, D.free())
    assert np.array_equal(free2.mask, lhs)
    assert free2.count() == D.free().count()


def test_polarize_punctured_not_admissible():
    g = centered_grid(32, 0.5)
    D = _annulus_domain(g, R=0.45, r=0.08)
    s_bad = 0.25  # 2 * s + r > R, mirrored obstacle leaves the outer disk
    H = Polarizer((1.0, 0.0), s_bad)
    with pytest.raises(NotAdmissible):
        polarize_punctured(H, D)


def test_punctured_domain_invariants():
    g = centered_grid(16, 0.5)
    outer = rasterize(Disk((0.0, 0.0), 0.45), g)
    # obstacle touching the outer boundary is rejected
    bad = rasterize(Disk((0.3, 0.0), 0.14, closed=True), g)
    with pytest.raises(MalformedDomain):
        PuncturedDomain(outer, (bad,))
    # pure Neumann requires the explicit flag
    with pytest.raises(MalformedDomain):
        PuncturedDomain(outer, (), bc_outer="neumann")
    PuncturedDomain(outer, (), bc_outer="neumann", allow_pure_neumann=True)


def test_obstacle_in_window_edge_row_rejected():
    # a full outer raster reaches the window edge, so an obstacle in the
    # edge row has no free cell ring on its outer side
    g = unit_grid(10)
    ob = np.zeros((10, 10), bool)
    ob[0, 5] = True
    with pytest.raises(MalformedDomain, match="free cell ring"):
        PuncturedDomain(RasterSet(g, np.ones((10, 10), bool)),
                        (RasterSet(g, ob),))


def test_pocket_labels_decide_pure_neumann():
    # a Neumann outer set with one pocket has a Dirichlet family only
    # through bc_inner, the pocket's label
    g = unit_grid(8)
    outer = np.ones((8, 8), bool)
    outer[4, 3] = False
    A = RasterSet(g, outer)
    PuncturedDomain(A, (), bc_outer="neumann", bc_inner="dirichlet")
    with pytest.raises(MalformedDomain, match="no Dirichlet boundary family"):
        PuncturedDomain(A, (), bc_outer="neumann", bc_inner="neumann")
    PuncturedDomain(A, (), bc_outer="neumann", bc_inner="neumann",
                    allow_pure_neumann=True)


def test_punctured_domain_disconnected_rejected():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[1:3, 1:3] = True
    m[5:7, 5:7] = True
    with pytest.raises(MalformedDomain):
        PuncturedDomain(RasterSet(g, m), ())


# ---------------------------------------------------------------------------
# invariance predicate cross-check
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_invariance_agrees_with_equality(seed):
    rng = np.random.default_rng(seed)
    g = unit_grid(int(rng.integers(6, 14)))
    A = random_raster(rng, g, float(rng.uniform(0.2, 0.8)))
    for H in default_polarizer_pool(g):
        assert is_polarization_invariant(H, A) == polarize_set(H, A).same_cells(A)


def test_invariance_simple_cases(rng):
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[2:6, 0:3] = True
    A = RasterSet(g, m)
    H = Polarizer((1.0, 0.0), 0.5)
    assert is_polarization_invariant(H, A)          # A inside H
    m2 = np.zeros((8, 8), bool)
    m2[:, 3:5] = True
    assert is_polarization_invariant(H, RasterSet(g, m2))  # symmetric


# ---------------------------------------------------------------------------
# Steiner symmetry
# ---------------------------------------------------------------------------


def test_steiner_disk_on_axis():
    g = centered_grid(24, 0.5)
    A = rasterize(Disk((0.0, 0.1), 0.3), g)
    assert is_steiner_symmetric(A, "x", 0.0)


def test_steiner_rhombus_both_axes():
    g = centered_grid(32, 0.5)
    A = rasterize(Rhombus((0.0, 0.0), 0.15, closed=True), g)
    assert is_steiner_symmetric(A, "x", 0.0)
    assert is_steiner_symmetric(A, "y", 0.0)
    assert is_steiner_symmetric(A, "diag", 0.0)
    assert is_steiner_symmetric(A, "antidiag", 0.0)


def test_steiner_l_shape_fails_with_diagnostic():
    g = unit_grid(12)
    m = np.zeros((12, 12), bool)
    m[2:10, 2:6] = True
    m[2:5, 6:10] = True  # L shape
    A = RasterSet(g, m)
    ok, viol = steiner_diagnostics(A, "x", 0.5)
    assert not ok and viol is not None


def test_steiner_offset_line_through_centers():
    # line through cell centers (odd half-units) is allowed for axis normals
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[3, 2:5] = True  # run of 3 centered on column 3 (u = 7)
    A = RasterSet(g, m)
    assert is_steiner_symmetric(A, "x", 7 / 16)


# ---------------------------------------------------------------------------
# foliated Schwarz symmetry
# ---------------------------------------------------------------------------


def test_fss_ball_on_ray():
    g = centered_grid(32, 1.0)
    a, eta = (0.0, 0.0), (1.0, 0.0)
    pool = fss_polarizer_pool(a, eta, g)
    assert 1 <= len(pool) <= 8
    A = rasterize(Disk((0.4, 0.0), 0.25, closed=True), g)
    assert is_foliated_schwarz(A, a, eta, pool)


def test_fss_radial_both_directions():
    g = centered_grid(32, 1.0)
    a = (0.0, 0.0)
    A = rasterize(Disk(a, 0.6), g)
    for eta in ((1.0, 0.0), (-1.0, 0.0)):
        pool = fss_polarizer_pool(a, eta, g)
        assert is_foliated_schwarz(A, a, eta, pool)


def test_fss_asymmetric_bump_fails():
    g = centered_grid(32, 1.0)
    a, eta = (0.0, 0.0), (1.0, 0.0)
    pool = fss_polarizer_pool(a, eta, g)
    A = rasterize(UnionShape((Disk((0.4, 0.0), 0.2, closed=True),
                              Disk((-0.1, 0.45), 0.18, closed=True))), g)
    assert not is_foliated_schwarz(A, a, eta, pool)


def test_fss_pool_membership_conditions():
    g = centered_grid(16, 1.0)
    pool = fss_polarizer_pool((0.0, 0.0), (1.0, 0.0), g)
    for H in pool:
        assert abs(H.offset - 0.0) < 1e-12     # anchor on the boundary
        assert H.normal[0] < 0                  # ray points into H
    from polarlap.errors import PoolViolation
    A = rasterize(Disk((0.2, 0.0), 0.1), g)
    bad = Polarizer((1.0, 0.0), 0.5)  # ray not inside H
    with pytest.raises(PoolViolation):
        is_foliated_schwarz(A, (0.0, 0.0), (1.0, 0.0), [bad])


# ---------------------------------------------------------------------------
# polarizer pools, pinned: normals, offsets, order and repr (no -0.0 normal
# component; (-1.0, -0.0) compares equal to (-1.0, 0.0) but reprs differ)
# ---------------------------------------------------------------------------

POOL_GRIDS = {
    "square": Grid((0.0, 0.0), 0.125, 8, 8),
    "nonsquare": Grid((0.0, 0.0), 0.25, 7, 10),
    "offorigin": Grid((-1.5, 0.75), 0.5, 9, 9),
}
_D = 0.7071067811865475  # 1/sqrt(2) as the pools spell it

DEFAULT_POOLS = {
    "square": [((1.0, 0.0), 0.5), ((-1.0, 0.0), -0.5), ((0.0, 1.0), 0.5),
               ((0.0, -1.0), -0.5), ((_D, _D), _D), ((-_D, -_D), -_D),
               ((_D, -_D), 0.0), ((-_D, _D), -0.0)],
    "nonsquare": [((1.0, 0.0), 0.875), ((-1.0, 0.0), -0.875),
                  ((0.0, 1.0), 1.25), ((0.0, -1.0), -1.25)],
    "offorigin": [((1.0, 0.0), 0.75), ((-1.0, 0.0), -0.75), ((0.0, 1.0), 3.0),
                  ((0.0, -1.0), -3.0), ((_D, _D), 2.651650429449553),
                  ((-_D, -_D), -2.651650429449553),
                  ((_D, -_D), -1.590990257669732),
                  ((-_D, _D), 1.590990257669732)],
}

FSS_POOLS = [
    ("square", (0.5, 0.5), (1.0, 0.0),
     [((-1.0, 0.0), -0.5), ((-_D, -_D), -_D), ((-_D, _D), 0.0)]),
    ("nonsquare", (0.75, 1.25), (0.0, -1.0),
     [((0.0, 1.0), 1.25), ((_D, _D), 1.414213562373095),
      ((-_D, _D), 0.35355339059327373)]),
    ("offorigin", (-0.5, 1.75), (0.6, 0.8),
     [((-1.0, 0.0), 0.5), ((0.0, -1.0), -1.75),
      ((-_D, -_D), -0.8838834764831843), ((_D, -_D), -1.590990257669732)]),
    # anchor off the nodes: no diagonal is compatible
    ("offorigin", (-0.25, 1.75), (-1.0, 0.0), [((1.0, 0.0), -0.25)]),
]


def _pinned(pool, expected):
    assert [repr(H) for H in pool] == [
        f"Polarizer(normal={n!r}, offset={s!r})" for n, s in expected]


@pytest.mark.parametrize("name", sorted(DEFAULT_POOLS))
def test_default_polarizer_pool_pinned(name):
    _pinned(default_polarizer_pool(POOL_GRIDS[name]), DEFAULT_POOLS[name])


@pytest.mark.parametrize("name, a, eta, expected", FSS_POOLS)
def test_fss_polarizer_pool_pinned(name, a, eta, expected):
    _pinned(fss_polarizer_pool(a, eta, POOL_GRIDS[name]), expected)


# ---------------------------------------------------------------------------
# rotation polarizer
# ---------------------------------------------------------------------------


def test_rotation_polarizer_diagonal_swap():
    H = rotation_polarizer((0.0, 0.0), (1.0, 0.0), 1.0, 0.0)
    n = np.array(H.normal)
    assert abs(abs(n @ np.array([1.0, -1.0]) / SQ2) - 1.0) < 1e-12
    assert np.allclose(reflect_point(H, (0.0, 1.0)), (1.0, 0.0), atol=1e-12)


def test_rotation_polarizer_maps_rays():
    a = np.array([0.3, -0.2])
    eta = np.array([1.0, 0.0])
    s, t = math.cos(math.pi / 6), math.cos(math.pi / 2)
    H = rotation_polarizer(a, eta, s, t)
    # anchor on the boundary, reference ray inside H
    assert abs(H.signed_distance(a)) < 1e-12
    assert H.signed_distance(a + 0.7 * eta) < 0
    Rs = np.array([[s, -math.sin(math.pi / 6)], [math.sin(math.pi / 6), s]])
    Rt = np.array([[0.0, -1.0], [1.0, 0.0]])
    for r in (1.0, 2.0, 5.0):
        img = reflect_point(H, a + r * (Rt @ eta))
        assert np.allclose(img, a + r * (Rs @ eta), atol=1e-12)


def test_rotation_polarizer_degenerate():
    with pytest.raises(DegeneratePolarizer):
        rotation_polarizer((0.0, 0.0), (1.0, 0.0), 0.5, 0.5)


def test_rotation_polarizer_ray_inside_both_orders():
    a, eta = np.zeros(2), np.array([1.0, 0.0])
    for (s, t) in ((0.9, 0.1), (0.1, 0.9)):
        H = rotation_polarizer(a, eta, s, t)
        assert H.signed_distance(a + 2.0 * eta) < 0


# ---------------------------------------------------------------------------
# obstacle motions
# ---------------------------------------------------------------------------


def test_translated_obstacle_zero_shift():
    ob = Rhombus((0.1, 0.2), 0.05, closed=True)
    assert translated_obstacle(ob, (1.0, 0.0), 0.0) == ob


def test_translation_reflection_identity():
    # sigma_{H_t}(O_s) = O_{2t-s} for an obstacle symmetric about the start line
    g = centered_grid(32, 0.5)
    ob = Disk((0.0, 0.0), 0.07, closed=True)
    h = (1.0, 0.0)
    d = g.spacing
    s, t = 2 * d, 5 * d
    Ht = Polarizer(h, t)
    lhs = reflect_set(Ht, rasterize(translated_obstacle(ob, h, s), g))
    rhs = rasterize(translated_obstacle(ob, h, 2 * t - s), g)
    assert lhs.same_cells(rhs)


def test_translation_composition():
    g = centered_grid(32, 0.5)
    ob = Disk((0.0, 0.0), 0.07, closed=True)
    h = (1.0, 0.0)
    d = g.spacing
    s, t = 3 * d, 4 * d
    a = rasterize(translated_obstacle(translated_obstacle(ob, h, s), h, t), g)
    b = rasterize(translated_obstacle(ob, h, s + t), g)
    assert a.same_cells(b)


def test_rotated_obstacle_identity_and_quarter_turn():
    a, eta = (0.1, 0.0), (1.0, 0.0)
    ob = Disk((0.5, 0.0), 0.1, closed=True)
    assert rotated_obstacle(ob, a, eta, 1.0) == ob
    rot = rotated_obstacle(ob, a, eta, 0.0)
    assert np.allclose(rot.center, (0.1, 0.4), atol=1e-12)


def test_rotated_union_of_balls_rigid():
    a, eta = (0.0, 0.0), (1.0, 0.0)
    ob = UnionShape((Disk((0.3, 0.0), 0.05, closed=True),
                     Disk((0.5, 0.0), 0.08, closed=True)))
    s = math.cos(math.pi / 4)
    rot = rotated_obstacle(ob, a, eta, s)
    c = math.cos(math.pi / 4)
    assert np.allclose(rot.members[0].center, (0.3 * c, 0.3 * c), atol=1e-12)
    assert np.allclose(rot.members[1].center, (0.5 * c, 0.5 * c), atol=1e-12)


def test_rotated_rhombus_rejected():
    with pytest.raises(ValueError):
        rotated_obstacle(Rhombus((0.0, 0.0), 0.1), (0.0, 0.0), (1.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# rasterize
# ---------------------------------------------------------------------------


def test_rasterize_disk_area():
    g = unit_grid(64)
    A = rasterize(Disk((0.5, 0.5), 0.25), g)
    d = g.spacing
    area = A.count() * d * d
    exact = math.pi * 0.25 ** 2
    perimeter = 2 * math.pi * 0.25
    assert abs(area - exact) <= 2 * perimeter * d


def test_rasterize_aligned_rectangle_exact():
    g = unit_grid(16)
    A = rasterize(Rectangle((0.25, 0.25), (0.75, 0.5)), g)
    expect = np.zeros((16, 16), bool)
    expect[4:8, 4:12] = True
    assert np.array_equal(A.mask, expect)


def test_rasterize_union_is_or():
    g = unit_grid(32)
    d1 = Disk((0.3, 0.3), 0.12)
    d2 = Disk((0.7, 0.7), 0.1)
    u = rasterize(UnionShape((d1, d2)), g)
    assert np.array_equal(u.mask, rasterize(d1, g).mask | rasterize(d2, g).mask)


def test_rasterize_out_of_bounds():
    g = unit_grid(8)
    with pytest.raises(OutOfBounds):
        rasterize(Disk((0.5, 0.5), 0.8), g)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def test_components_counts():
    g = unit_grid(32)
    one = rasterize(Disk((0.5, 0.5), 0.2), g)
    assert connected_components(one)[0] == 1
    two = rasterize(UnionShape((Disk((0.25, 0.25), 0.1),
                                Disk((0.75, 0.75), 0.1))), g)
    assert connected_components(two)[0] == 2


def test_components_labels_scan_order():
    g = unit_grid(8)
    m = np.zeros((8, 8), bool)
    m[6:8, 0:2] = True   # appears later in scan order (higher rows)
    m[0:2, 5:7] = True   # first in scan order
    n, labels = connected_components(RasterSet(g, m))
    assert n == 2
    assert labels[0, 5] == 1 and labels[6, 0] == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polarized_connected_intersection(seed):
    # the part of the polarized set on the closed H side stays connected;
    # the open side can pinch apart at cells sitting exactly on the line,
    # so the raster analogue of the statement includes them
    rng = np.random.default_rng(seed)
    g = unit_grid(16)
    Om = random_connected_raster(rng, g)
    for H in default_polarizer_pool(g):
        part = polarize_set(H, Om).intersect(_closed_side(H, g))
        if part.is_empty():
            continue
        n, _ = connected_components(part)
        assert n == 1


def _closed_side(H, grid):
    X, Y = grid.cell_centers()
    side = X * H.normal[0] + Y * H.normal[1] - H.offset
    return RasterSet(grid, side < 1e-12 * max(1.0, abs(H.offset)) + 1e-12 * grid.spacing)


# ---------------------------------------------------------------------------
# reflection symmetry helper
# ---------------------------------------------------------------------------


def test_reflection_symmetry_predicate():
    g = centered_grid(16, 0.5)
    A = rasterize(Disk((0.0, 0.0), 0.3), g)
    assert is_reflection_symmetric(Polarizer((1.0, 0.0), 0.0), A)
    B = rasterize(Disk((0.1, 0.0), 0.3, closed=True), g)
    assert not is_reflection_symmetric(Polarizer((1.0, 0.0), 0.0), B)
