"""Scenario runners on coarse grids: inequality checks, sweeps, studies."""

import math

import numpy as np
import pytest
from scipy.special import j0, jn_zeros

from polarlap.errors import (
    AssumptionViolated,
    NotAdmissible,
    SymmetryHypothesisViolated,
)
from polarlap.geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Ellipse,
    Grid,
    Polarizer,
    PuncturedDomain,
    Rhombus,
    UnionShape,
    fss_polarizer_pool,
    rasterize,
)
from polarlap.discretize import triangulate
from polarlap.eigensolve import SolverConfig, solve
from polarlap.experiments import (
    AnnulusSpec,
    RotateSpec,
    SymmetrySpec,
    TranslateSpec,
    annulus_study,
    build_sweep,
    check_unit,
    fk_check,
    rotate_sweep,
    strict_p_min,
    symmetry_check,
    translate_sweep,
)

from conftest import centered_grid


def _grid(n=48, half=0.75):
    return Grid((-half, -half), 2 * half / n, n, n)


# ---------------------------------------------------------------------------
# fk_check
# ---------------------------------------------------------------------------

def test_fk_symmetric_domain_invariant():
    g = _grid()
    D = PuncturedDomain(rasterize(Disk((0.0, 0.0), 0.5), g), ())
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=2.0))
    assert v.strict_case == "invariant"
    assert v.relation == "leq"
    assert abs(v.gap) <= 1e-3 * v.lambda_before


def test_fk_oblique_ellipse_strict_p3():
    g = _grid()
    Om = rasterize(Ellipse((0.03125, 0.0625), (0.5, 0.22), angle=0.9), g)
    D = PuncturedDomain(Om, ())
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=3.0))
    assert v.strict_case == "strict"
    assert v.relation == "leq"
    assert v.gap > 1e-3 * v.lambda_before


def test_fk_reflected_congruent():
    g = _grid()
    D = PuncturedDomain(rasterize(Disk((0.25, 0.1), 0.2), g), ())
    # domain entirely on the complement side: polarization is the mirror
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=2.0))
    assert v.strict_case == "reflected"
    assert abs(v.gap) <= 1e-9 * v.lambda_before


@pytest.mark.parametrize("p, inside", [
    (1.25, False), (1.5, False), (1.6, True), (2.0, True), (3.0, True),
])
def test_strict_range_flag(p, inside):
    # the paper's strict inequality holds for (2d+2)/(d+2) < p < inf, so the
    # end point p = 1.5 of the plane lies outside
    assert strict_p_min() == 1.5 and strict_p_min(3) == 1.6
    D = PuncturedDomain(rasterize(Disk((0.25, 0.1), 0.2), _grid(16)), ())
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=p))
    assert v.p_in_strict_range is inside
    sweep = build_sweep([0.0], [solve(triangulate(D), SolverConfig(p=p))],
                        SolverConfig(p=p))
    assert sweep.p_in_strict_range is inside


def test_fk_neumann_inner_requires_symmetry():
    g = _grid()
    outer = rasterize(Disk((0.0, 0.0), 0.6), g)
    hole = rasterize(Disk((0.125, 0.0), 0.1, closed=True), g)
    D = PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET, bc_inner=NEUMANN)
    with pytest.raises(SymmetryHypothesisViolated):
        fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=2.0))


def test_fk_neumann_inner_symmetric_ok():
    g = _grid(n=56, half=0.875)
    outer = rasterize(Ellipse((0.03125, 0.0), (0.6, 0.35), angle=0.7), g)
    hole = rasterize(Disk((0.0, 0.0), 0.09375, closed=True), g)
    D = PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET, bc_inner=NEUMANN)
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0), SolverConfig(p=2.0))
    assert v.relation == "leq"


def test_fk_randomized_never_violated(rng):
    # the inequality holds across randomized admissible domains at p in {2, 3}
    g = _grid(n=40, half=0.625)
    for k in range(8):
        shape = Ellipse((float(rng.uniform(-0.08, 0.08)),
                         float(rng.uniform(-0.08, 0.08))),
                        (float(rng.uniform(0.35, 0.5)),
                         float(rng.uniform(0.18, 0.3))),
                        angle=float(rng.uniform(0, math.pi)))
        D = PuncturedDomain(rasterize(shape, g), ())
        H = Polarizer((1.0, 0.0), 0.0) if k % 2 else Polarizer((0.0, 1.0), 0.0)
        p = 2.0 if k < 4 else 3.0
        v = fk_check(D, H, SolverConfig(p=p))
        assert v.relation == "leq"
        assert v.converged_before and v.converged_after


def test_fk_unconverged_solve_is_unresolved():
    # one step leaves both solves unconverged, so neither lam decides the
    # relation, whichever is larger
    g = _grid(16)
    D = PuncturedDomain(
        rasterize(Ellipse((0.03125, 0.0625), (0.5, 0.22), angle=0.9), g), ())
    v = fk_check(D, Polarizer((1.0, 0.0), 0.0),
                 SolverConfig(p=3.0, max_outer=1))
    assert not v.converged_before and not v.converged_after
    assert v.relation == "unresolved"


def test_fk_inadmissible_polarizer():
    g = _grid()
    outer = rasterize(Disk((0.0, 0.0), 0.6), g)
    hole = rasterize(Disk((0.0, 0.0), 0.15, closed=True), g)
    D = PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET, bc_inner=DIRICHLET)
    with pytest.raises(NotAdmissible):
        fk_check(D, Polarizer((1.0, 0.0), 0.375), SolverConfig(p=2.0))


# ---------------------------------------------------------------------------
# translate_sweep
# ---------------------------------------------------------------------------


def test_translate_disk_decreasing():
    g = _grid(n=64, half=0.625)
    d = g.spacing
    sw = translate_sweep(TranslateSpec(
        Disk((0.0, 0.0), 0.5), Disk((0.0, 0.0), 0.15, closed=True),
        (1.0, 0.0), (0.0, 2 * d, 4 * d, 6 * d)), SolverConfig(p=2.0), g)
    assert sw.direction == "decreasing"
    assert sw.min_margin > 1e-4


def test_translate_mirror_sweeps_match():
    g = _grid(n=64, half=0.625)
    d = g.spacing
    svals = (0.0, 2 * d, 4 * d)
    a, b = (translate_sweep(TranslateSpec(
        Disk((0.0, 0.0), 0.5), Disk((0.0, 0.0), 0.15, closed=True), h, svals),
        SolverConfig(p=2.0), g) for h in ((1.0, 0.0), (-1.0, 0.0)))
    for la, lb in zip(a.lambdas, b.lambdas):
        assert abs(la - lb) / la < 1e-9


def test_translate_composite_domain_decreasing():
    # half disk joined with a rhombus nose, rhombus obstacle; axis direction
    g = _grid(n=64, half=1.0)
    d = g.spacing
    outer = UnionShape((Disk((0.0, 0.0), 0.75), Rhombus((0.0, 0.0), 0.25)))
    ob = Rhombus((0.0, 0.0), 0.0625, closed=True)
    sw = translate_sweep(TranslateSpec(outer, ob, (1.0, 0.0), (0.0, 4 * d, 8 * d)),
                         SolverConfig(p=2.0), g)
    assert sw.direction == "decreasing"
    assert sw.min_margin > 1e-4


def test_translate_infeasible_offsets_dropped():
    g = _grid(n=48, half=0.75)
    d = g.spacing
    sw = translate_sweep(TranslateSpec(
        Disk((0.0, 0.0), 0.5), Disk((0.0, 0.0), 0.15, closed=True),
        (1.0, 0.0), (0.0, 4 * d, 30 * d)), SolverConfig(p=2.0), g)
    assert len(sw.params) == 2
    assert any("dropped" in note for note in sw.notes)


def test_translate_assumption_violations():
    g = _grid(n=48, half=0.75)
    d = g.spacing
    # outer not symmetric about the start line
    with pytest.raises(AssumptionViolated):
        translate_sweep(TranslateSpec(
            Disk((0.2, 0.0), 0.5), Disk((0.0, 0.0), 0.1, closed=True),
            (1.0, 0.0), (0.0, 2 * d)), SolverConfig(p=2.0), g)
    # obstacle not Steiner symmetric about the start line
    with pytest.raises(AssumptionViolated):
        translate_sweep(TranslateSpec(
            Disk((0.0, 0.0), 0.5), Disk((4 * d, 0.0), 0.1, closed=True),
            (1.0, 0.0), (0.0, 2 * d)), SolverConfig(p=2.0), g)
    # shift not grid-exact
    with pytest.raises(AssumptionViolated):
        translate_sweep(TranslateSpec(
            Disk((0.0, 0.0), 0.5), Disk((0.0, 0.0), 0.1, closed=True),
            (1.0, 0.0), (0.0, 1.37 * d)), SolverConfig(p=2.0), g)


def test_non_finite_directions_rejected():
    # NaN compares False against every tolerance, so each check must be
    # written to fail on it rather than to pass
    nan, inf = math.nan, math.inf
    for v in ((nan, 0.0), (0.0, nan), (inf, 0.0), (inf, nan)):
        with pytest.raises(ValueError):
            check_unit(v, "translation direction", "direction")
        with pytest.raises(ValueError):
            Polarizer(v, 0.0)
        with pytest.raises(ValueError):
            fss_polarizer_pool((0.0, 0.0), v, Grid((-1.0, -1.0), 0.125, 16, 16))
    with pytest.raises(ValueError):
        Polarizer((1.0, 0.0), nan)


# ---------------------------------------------------------------------------
# rotate_sweep
# ---------------------------------------------------------------------------


def _rotate_grid():
    return Grid((-1.0625, -1.0625), 2.125 / 68, 68, 68)  # spacing 1/32


def test_rotate_eccentric_increasing():
    g = _rotate_grid()
    a = (-0.25, 0.0)
    svals = [math.cos(2 * math.pi / 3), 0.0, math.cos(math.pi / 3), 1.0]
    sw = rotate_sweep(RotateSpec("neumann-inner", Disk((0.0, 0.0), 1.0),
                                 Disk((0.25, 0.0), 0.15625, closed=True),
                                 a, (1.0, 0.0), tuple(svals),
                                 fixed_hole=Disk(a, 0.15625, closed=True)),
                      SolverConfig(p=2.0), g)
    assert sw.direction == "increasing"
    assert sw.min_margin > 1e-4


def test_rotate_radial_control_constant():
    # obstacle radius picked so the rotated poses rasterize to stable cell
    # counts at this coarse spacing; raster-noise otherwise dominates
    g = _rotate_grid()
    a = (0.0, 0.0)
    svals = [math.cos(2 * math.pi / 3), 0.0, math.cos(math.pi / 3), 1.0]
    sw = rotate_sweep(RotateSpec("neumann-inner", Disk(a, 1.0),
                                 Disk((0.5, 0.0), 0.21875, closed=True),
                                 a, (1.0, 0.0), tuple(svals),
                                 fixed_hole=Disk(a, 0.15625, closed=True)),
                      SolverConfig(p=2.0), g)
    spread = (max(sw.lambdas) - min(sw.lambdas)) / min(sw.lambdas)
    assert spread <= 1e-3
    assert any("radial" in n for n in sw.notes)


def test_rotate_repeated_s_constant():
    g = _rotate_grid()
    a = (-0.25, 0.0)
    sw = rotate_sweep(RotateSpec("neumann-inner", Disk((0.0, 0.0), 1.0),
                                 Disk((0.25, 0.0), 0.15625, closed=True),
                                 a, (1.0, 0.0), (0.5, 0.5),
                                 fixed_hole=Disk(a, 0.15625, closed=True)),
                      SolverConfig(p=2.0), g)
    assert sw.direction == "constant"
    assert sw.min_margin == 0.0


def test_rotate_neumann_outer_variant():
    g = _rotate_grid()
    a = (0.0, 0.0)
    svals = [0.0, math.cos(math.pi / 3), 1.0]
    sw = rotate_sweep(RotateSpec("neumann-outer", Disk(a, 1.0),
                                 Disk((0.5, 0.0), 0.21875, closed=True),
                                 a, (1.0, 0.0), tuple(svals)),
                      SolverConfig(p=2.0), g)
    # radial outer ball: the eigenvalue stays constant along rotations
    spread = (max(sw.lambdas) - min(sw.lambdas)) / min(sw.lambdas)
    assert spread <= 1e-3


def test_rotate_mirrored_axis_direction_matches():
    # negating the in-plane orientation mirrors the configurations; at p = 2
    # the mirrored meshes are exact relabelings, so the lists agree
    g = _rotate_grid()
    a = (-0.25, 0.0)
    svals = [0.0, math.cos(math.pi / 3), 1.0]

    def run(signed_y):
        return rotate_sweep(RotateSpec(
            "neumann-inner", Disk((0.0, 0.0), 1.0),
            Disk((0.25, 0.0), 0.15625, closed=True), a, (1.0, 0.0),
            tuple(svals), fixed_hole=Disk(a, 0.15625, closed=True)),
            SolverConfig(p=2.0), g) if signed_y > 0 else None

    sw = run(1)
    # mirror the whole configuration through the x-axis by hand
    cfg = SolverConfig(p=2.0)
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk(a, 0.15625, closed=True), g)
    lams = []
    for s in svals:
        th = math.acos(s)
        c = (a[0] + 0.5 * math.cos(th), -0.5 * math.sin(th))  # clockwise
        ob = rasterize(Disk(c, 0.15625, closed=True), g)
        D = PuncturedDomain(outer, (hole, ob), bc_outer=DIRICHLET,
                            bc_inner=DIRICHLET,
                            bc_obstacles=(NEUMANN, DIRICHLET))
        lams.append(solve(triangulate(D), cfg).lam)
    for la, lb in zip(sw.lambdas, lams):
        assert abs(la - lb) / la < 1e-9


def test_rotate_assumption_violated_for_anchor_off_nodes():
    g = _rotate_grid()
    a = (-0.253, 0.0)  # not aligned with the grid
    with pytest.raises(AssumptionViolated):
        rotate_sweep(RotateSpec("neumann-inner", Disk((0.0, 0.0), 1.0),
                                Disk((0.247, 0.0), 0.15625, closed=True),
                                a, (1.0, 0.0), (0.0, 1.0),
                                fixed_hole=Disk(a, 0.15625, closed=True)),
                     SolverConfig(p=2.0), g)


# ---------------------------------------------------------------------------
# annulus study (coarse)
# ---------------------------------------------------------------------------


def test_annulus_study_coarse():
    g = Grid((-1.0625, -1.0625), 2.125 / 68, 68, 68)  # spacing 1/32
    rep = annulus_study(AnnulusSpec(1.0, 0.2, 0.25, 0.1, step_cells=2,
                                    line_offset=0.4375), SolverConfig(p=2.0), g)
    assert rep.mid_segment is None  # no admissible on-axis [-alpha, 0] points
    assert any("mid-increasing" in n for n in rep.notes)
    assert rep.offaxis_segment is not None
    assert rep.offaxis_segment.direction == "increasing"
    assert rep.right_segment.direction == "decreasing"
    assert rep.unimodal and rep.argmax_interior
    assert 0.0 < rep.argmax_param < rep.r_bar
    for c in rep.circle_checks:
        assert c.ordered
    # left branch: increasing pointwise, margins below the strict floor
    left = [(s, l) for s, l in zip(rep.axis_sweep.params,
                                   rep.axis_sweep.lambdas) if s <= rep.r_under]
    assert all(b[1] > a[1] for a, b in zip(left, left[1:]))


def test_annulus_concentric_matches_translation():
    # alpha = 0: the axis placements coincide with a translation sweep over
    # the fixed annulus; the sweep keeps only offsets where the annulus is
    # polarization-invariant (beyond (R + r) / 2), matching the study there
    g = Grid((-0.8125, -0.8125), 1.625 / 52, 52, 52)
    R, r, rho = 0.75, 0.2, 0.09375
    rep = annulus_study(AnnulusSpec(R, r, 0.0, rho, step_cells=2),
                        SolverConfig(p=2.0), g)
    axis = dict(zip(rep.axis_sweep.params, rep.axis_sweep.lambdas))
    svals = sorted(s for s in axis if s >= (R + r) / 2)

    def sweep(s_values):
        return translate_sweep(TranslateSpec(
            Disk((0.0, 0.0), R), Disk((0.0, 0.0), rho, closed=True),
            (1.0, 0.0), tuple(s_values),
            fixed_holes=(Disk((0.0, 0.0), r, closed=True),)),
            SolverConfig(p=2.0), g)

    sw = sweep(svals)
    assert list(sw.params) == svals  # all kept: invariance holds out there
    for s, lam in zip(sw.params, sw.lambdas):
        assert lam == pytest.approx(axis[s], rel=1e-12)
    # inside (R + r) / 2 the invariance fails and offsets are dropped
    sw2 = sweep([0.375, 0.4375] + svals)
    assert list(sw2.params) == svals
    assert sum("not polarization-invariant" in n for n in sw2.notes) == 2


def test_annulus_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AnnulusSpec(1.0, 0.2, 0.9, 0.1)


def test_annulus_empty_admissible_set():
    from polarlap.errors import EmptyAdmissibleSet
    g = Grid((-0.8125, -0.8125), 1.625 / 52, 52, 52)
    with pytest.raises(EmptyAdmissibleSet):
        # the obstacle can fit nowhere
        annulus_study(AnnulusSpec(0.75, 0.3, 0.0, 0.4), SolverConfig(p=2.0), g)


# ---------------------------------------------------------------------------
# symmetry_check
# ---------------------------------------------------------------------------


def test_symmetry_concentric_annulus():
    g = _rotate_grid()
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((0.0, 0.0), 0.2, closed=True), g)
    D = PuncturedDomain(outer, (hole,))
    rep = symmetry_check(D, SymmetrySpec((0.0, 0.0), (1.0, 0.0)),
                         SolverConfig(p=2.0))
    assert rep.max_defect < 1e-6


def test_symmetry_eccentric_annulus():
    g = _rotate_grid()
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((-0.25, 0.0), 0.2, closed=True), g)
    D = PuncturedDomain(outer, (hole,))
    rep = symmetry_check(D, SymmetrySpec((-0.25, 0.0), (1.0, 0.0)),
                         SolverConfig(p=2.0))
    assert rep.max_defect < 1e-3


def test_symmetry_unit_disk_bessel_profile():
    g = _rotate_grid()
    D = PuncturedDomain(rasterize(Disk((0.0, 0.0), 1.0), g), ())
    res = solve(triangulate(D))
    X, Y = g.node_coords()
    rr = np.sqrt(X ** 2 + Y ** 2)
    prof = np.where(rr <= 1.0, j0(jn_zeros(0, 1)[0] * np.minimum(rr, 1.0)), 0.0)
    un = res.u.values / res.u.values.max()
    pn = prof / prof.max()
    err = np.abs(un - pn)[res.u.values > 0].max()
    assert err < 0.02


def test_symmetry_requires_fss_domain():
    g = _rotate_grid()
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((0.0, 0.375), 0.2, closed=True), g)  # off the ray
    D = PuncturedDomain(outer, (hole,))
    with pytest.raises(AssumptionViolated):
        symmetry_check(D, SymmetrySpec((0.0, 0.0), (1.0, 0.0)),
                       SolverConfig(p=2.0))


# ---------------------------------------------------------------------------
# sweep classification
# ---------------------------------------------------------------------------


def test_sweep_direction_classification():
    from polarlap.eigensolve import EigenResult
    from polarlap.rearrange import GridFunction
    from polarlap.geometry import full_raster
    g = centered_grid(4, 0.5)
    u = GridFunction(g, np.zeros(g.node_shape), full_raster(g))

    def res(lam, conv=True):
        return EigenResult(lam, u, 1, 0.0, conv)

    cfg = SolverConfig()
    sw = build_sweep([0, 1, 2], [res(1.0), res(2.0), res(3.0)], cfg)
    assert sw.direction == "increasing" and sw.min_margin == 0.5
    sw = build_sweep([0, 1], [res(3.0), res(1.0)], cfg)
    assert sw.direction == "decreasing"
    sw = build_sweep([0, 1], [res(1.0), res(1.0 + 1e-9)], cfg)
    assert sw.direction == "constant"
    # whole-sweep spread within the discretization slack reads constant,
    # even when single steps cross the strictness floor
    sw = build_sweep([0, 1, 2], [res(1.0), res(1.0 + 5e-4), res(1.0)], cfg)
    assert sw.direction == "constant"
    sw = build_sweep([0, 1, 2], [res(1.0), res(2.0), res(1.5)], cfg)
    assert sw.direction == "mixed"
    # unconverged points drop out; the converged subsequence is classified
    sw = build_sweep([0, 1, 2], [res(1.0), res(5.0, conv=False), res(2.0)], cfg)
    assert sw.direction == "increasing"
    # fewer than two converged points decide no direction
    sw = build_sweep([0, 1], [res(1.0), res(2.0, conv=False)], cfg)
    assert sw.direction == "unresolved" and sw.min_margin == 0.0
