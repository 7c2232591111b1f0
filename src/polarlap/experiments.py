"""Scenario runners: assemble punctured domains, solve, and render verdicts
for the polarization inequality and the obstacle-motion monotonicity checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    EmptyAdmissibleSet,
    IncompatiblePolarizer,
    MalformedDomain,
    OutOfBounds,
    SymmetryHypothesisViolated,
)
from .geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Grid,
    Polarizer,
    PuncturedDomain,
    RasterSet,
    Reflection,
    ShapeSpec,
    directionally_convex,
    fss_polarizer_pool,
    is_foliated_schwarz,
    is_polarization_invariant,
    is_reflection_symmetric,
    is_steiner_symmetric,
    normal_axis,
    polarize_punctured,
    rasterize,
    reflect_set,
    rotated_obstacle,
    translated_obstacle,
    witness_sets,
)
from .rearrange import polarize_function
from .discretize import triangulate
from .eigensolve import EigenResult, SolverConfig, solve

EPS_DISC_FACTOR = 1e-3  # inequality slack relative to the unpolarized eigenvalue


def strict_p_min(d: int = 2) -> float:
    """(2d+2)/(d+2): the paper proves the strict inequality for
    strict_p_min(d) < p < inf in dimension d, so p > 1.5 in the plane."""
    return (2 * d + 2) / (d + 2)


def eps_strict(cfg: SolverConfig) -> float:
    """Strictness floor for monotonicity margins, above solver tolerance."""
    return max(1e-4, 3.0 * cfg.outer_tol)


# ---------------------------------------------------------------------------
# sweep results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    params: tuple
    lambdas: tuple
    converged: tuple
    outer_iters: tuple
    residuals: tuple
    direction: str       # increasing | decreasing | constant | mixed
    min_margin: float    # smallest |dlambda|/lambda among strict pairs
    notes: tuple
    p_in_strict_range: bool  # p > strict_p_min(): inside the paper's theorem


def _classify(params, lambdas, converged, eps) -> tuple[str, float]:
    """Direction over the converged subsequence.

    "constant" means the whole sweep stays within the discretization slack
    EPS_DISC_FACTOR; strict directions need every consecutive converged
    pair on the same side, with min_margin the smallest relative step among
    pairs exceeding the strictness floor eps.
    """
    lams = [l for l, c in zip(lambdas, converged) if c]
    if len(lams) < 2:
        return "constant", 0.0
    lo, hi = min(lams), max(lams)
    diffs = [(b - a) / max(abs(a), 1e-300) for a, b in zip(lams, lams[1:])]
    strict = [abs(d) for d in diffs if abs(d) > eps]
    margin = min(strict) if strict else 0.0
    if (hi - lo) <= EPS_DISC_FACTOR * max(abs(lo), 1e-300):
        return "constant", margin
    if all(d > 0 for d in diffs):
        return "increasing", margin
    if all(d < 0 for d in diffs):
        return "decreasing", margin
    return "mixed", margin


def build_sweep(params: Sequence[float], results: Sequence[EigenResult],
                cfg: SolverConfig, notes: Sequence[str] = ()) -> SweepResult:
    lambdas = tuple(r.lam for r in results)
    conv = tuple(r.converged for r in results)
    iters = tuple(r.outer_iters for r in results)
    res = tuple(r.residual for r in results)
    direction, margin = _classify(list(params), list(lambdas), list(conv),
                                  eps_strict(cfg))
    return SweepResult(tuple(float(s) for s in params), lambdas, conv, iters,
                       res, direction, margin, tuple(notes),
                       cfg.p > strict_p_min())


# ---------------------------------------------------------------------------
# polarization inequality check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FkVerdict:
    lambda_before: float
    lambda_after: float
    relation: str      # leq | violated | unresolved (a solve unconverged or
                       # with a non-finite lam)
    strict_case: str   # invariant | reflected | strict
    gap: float
    p: float
    converged_before: bool
    converged_after: bool
    p_in_strict_range: bool  # p > strict_p_min(): inside the paper's theorem
    outer_iters: tuple       # per solve, before and after
    residuals: tuple


def fk_check(D: PuncturedDomain, H: Polarizer, cfg: SolverConfig) -> FkVerdict:
    """Solve on D and on its polarization, then compare first eigenvalues.

    Neumann boundary families must be invariant under the reflection; the
    strictness case is classified exactly from the invariance witnesses of
    the free region.
    """
    if D.bc_outer == NEUMANN and not is_reflection_symmetric(H, D.outer):
        raise SymmetryHypothesisViolated(
            "Neumann outer set is not reflection-invariant")
    neumann_union = np.zeros(D.grid.shape, dtype=bool)
    for ob, bc in zip(D.obstacles, D.bc_obstacles):
        if bc == NEUMANN:
            neumann_union |= ob.mask
    if neumann_union.any() and not is_reflection_symmetric(
            H, RasterSet(D.grid, neumann_union)):
        raise SymmetryHypothesisViolated(
            "Neumann obstacle family is not reflection-invariant")

    D_pol = polarize_punctured(H, D)
    a_h, b_h = witness_sets(H, D.free())
    if a_h.is_empty():
        strict_case = "invariant"
    elif b_h.is_empty():
        strict_case = "reflected"
    else:
        strict_case = "strict"

    before = solve(triangulate(D), cfg)
    after = solve(triangulate(D_pol), cfg)
    gap = before.lam - after.lam
    if not (before.converged and after.converged
            and math.isfinite(before.lam) and math.isfinite(after.lam)):
        relation = "unresolved"
    elif after.lam <= before.lam + EPS_DISC_FACTOR * before.lam:
        relation = "leq"
    else:
        relation = "violated"
    return FkVerdict(before.lam, after.lam, relation, strict_case, gap, cfg.p,
                     before.converged, after.converged, cfg.p > strict_p_min(),
                     (before.outer_iters, after.outer_iters),
                     (before.residual, after.residual))


# ---------------------------------------------------------------------------
# translation sweep
# ---------------------------------------------------------------------------


def check_unit(v, name: str) -> None:
    """Raise ValueError unless the direction v has unit length (within 1e-9)."""
    # written as not (... <= tol) so that NaN and infinite components fail
    if not abs(float(np.hypot(*np.asarray(v, dtype=float))) - 1.0) <= 1e-9:
        raise ValueError(f"{name} must be a unit vector")


def translate_sweep(outer_shape: ShapeSpec, obstacle_shape: ShapeSpec, h,
                    s_values: Sequence[float], cfg: SolverConfig, grid: Grid,
                    bc_outer: str = DIRICHLET, bc_obstacle: str = DIRICHLET,
                    fixed_holes: Sequence[ShapeSpec] = ()) -> SweepResult:
    """First eigenvalue along obstacle translations s * h.

    The fixed domain is the outer shape minus the optional Dirichlet fixed
    holes (it may be multiply connected, like an annulus).  It must be
    polarization-invariant toward the start line and the obstacle Steiner
    symmetric about it; offsets whose invariance or containment fails are
    dropped with a note.
    """
    check_unit(h, "translation direction")
    h = np.asarray(h, dtype=float)
    axis, _ = normal_axis(h)
    outer = rasterize(outer_shape, grid)
    holes = tuple(rasterize(sp, grid) for sp in fixed_holes)
    domain_fixed = outer
    for hole in holes:
        domain_fixed = domain_fixed.minus(hole)
    H0 = Polarizer((float(h[0]), float(h[1])), 0.0)
    if not is_polarization_invariant(H0, domain_fixed):
        raise AssumptionViolated(
            "fixed domain is not polarization-invariant about the start line "
            "(outer-invariance hypothesis)")
    ob0 = rasterize(obstacle_shape, grid)
    if not is_steiner_symmetric(ob0, axis, 0.0):
        raise AssumptionViolated(
            "obstacle is not Steiner symmetric about the start line "
            "(obstacle-symmetry hypothesis)")
    d = grid.spacing
    for s in s_values:
        for comp in (s * h[0], s * h[1]):
            if abs(comp / d - round(comp / d)) > 1e-9:
                raise AssumptionViolated(
                    f"shift {s} * h is not a whole number of cells")
    if any(s_values[i] > s_values[i + 1] for i in range(len(s_values) - 1)):
        raise AssumptionViolated("s_values must be nondecreasing")

    notes = []
    sigma0 = RasterSet(grid, domain_fixed.mask & Reflection.of(H0, grid).beyond)
    try:
        refl = reflect_set(H0, sigma0)
        if not directionally_convex(sigma0.union(refl), axis):
            notes.append("start half-domain union is not directionally convex "
                         "on the raster; interval hypothesis flagged")
    except OutOfBounds:
        notes.append("start half-domain reflection leaves the window; "
                     "interval hypothesis not checked")

    kept, results = [], []
    for s in s_values:
        Hs = Polarizer((float(h[0]), float(h[1])), float(s))
        try:
            invariant = is_polarization_invariant(Hs, domain_fixed)
        except IncompatiblePolarizer:
            notes.append(f"s={s:g}: polarizer not grid-compatible; dropped")
            continue
        if not invariant:
            notes.append(f"s={s:g}: fixed domain not polarization-invariant; "
                         "dropped")
            continue
        try:
            ob_s = rasterize(translated_obstacle(obstacle_shape, h, s), grid)
            D = PuncturedDomain(outer, holes + (ob_s,), bc_outer=bc_outer,
                                bc_inner=DIRICHLET,
                                bc_obstacles=(DIRICHLET,) * len(holes)
                                + (bc_obstacle,))
        except (MalformedDomain, OutOfBounds) as exc:
            notes.append(f"s={s:g}: obstacle not admissible ({exc}); dropped")
            continue
        kept.append(s)
        results.append(solve(triangulate(D), cfg))
    if len(kept) < 2:
        raise EmptyAdmissibleSet("fewer than 2 admissible sweep offsets remain")
    return build_sweep(kept, results, cfg, notes)


# ---------------------------------------------------------------------------
# rotation sweep
# ---------------------------------------------------------------------------

NEUMANN_INNER = "neumann-inner"   # fixed Neumann ball hole at the anchor
NEUMANN_OUTER = "neumann-outer"   # Neumann outer ball about the anchor


def check_variant(variant: str) -> None:
    """Raise ValueError unless variant names a rotation-sweep variant."""
    if variant not in (NEUMANN_INNER, NEUMANN_OUTER):
        raise ValueError(f"unknown variant {variant!r}")


def rotate_sweep(variant: str, outer_shape: ShapeSpec,
                 fixed_hole: Optional[ShapeSpec], obstacle_shape: ShapeSpec,
                 a, eta, s_values: Sequence[float], cfg: SolverConfig,
                 grid: Grid) -> SweepResult:
    """First eigenvalue along obstacle rotations about the anchor a.

    The fixed domain and the obstacle (reference pose) must be foliated
    Schwarz symmetric about a + R+ eta, checked over the grid-compatible
    anchored pool.  Rotated poses that leave the domain are dropped with a
    note.
    """
    a = np.asarray(a, dtype=float)
    check_unit(eta, "axis direction")
    check_variant(variant)
    eta = np.asarray(eta, dtype=float)

    def off_anchor(shape) -> bool:
        return not isinstance(shape, Disk) or math.hypot(
            shape.center[0] - a[0], shape.center[1] - a[1]) > 1e-12

    if variant == NEUMANN_OUTER and off_anchor(outer_shape):
        raise AssumptionViolated(
            "Neumann-outer variant needs a disk outer set centered at the anchor")
    if variant == NEUMANN_INNER and fixed_hole is not None and off_anchor(fixed_hole):
        raise AssumptionViolated(
            "Neumann-inner variant needs a disk hole centered at the anchor")
    if any(s_values[i] > s_values[i + 1] for i in range(len(s_values) - 1)):
        raise AssumptionViolated("s_values must be nondecreasing")

    pool = fss_polarizer_pool(a, eta, grid)
    if not pool:
        raise AssumptionViolated(
            "no grid-compatible polarizers anchored at the rotation center; "
            "align the anchor with the grid nodes")
    outer = rasterize(outer_shape, grid)
    fixed = rasterize(fixed_hole, grid) if fixed_hole is not None else None
    domain_fixed = outer if fixed is None else outer.minus(fixed)
    if not is_foliated_schwarz(domain_fixed, a, eta, pool):
        raise AssumptionViolated(
            "fixed domain is not foliated Schwarz symmetric about the anchor ray")
    if not is_foliated_schwarz(rasterize(obstacle_shape, grid), a, eta, pool):
        raise AssumptionViolated(
            "obstacle reference pose is not foliated Schwarz symmetric about "
            "the anchor ray")

    bc_outer = NEUMANN if variant == NEUMANN_OUTER else DIRICHLET
    fixed_bc = NEUMANN if variant == NEUMANN_INNER else DIRICHLET
    notes, kept, results = [], [], []
    for s in s_values:
        try:
            ob_s = rasterize(rotated_obstacle(obstacle_shape, a, eta, s), grid)
            obstacles = (fixed, ob_s) if fixed is not None else (ob_s,)
            bcs = (fixed_bc, DIRICHLET) if fixed is not None else (DIRICHLET,)
            D = PuncturedDomain(outer, obstacles, bc_outer=bc_outer,
                                bc_inner=DIRICHLET, bc_obstacles=bcs)
        except (MalformedDomain, OutOfBounds) as exc:
            notes.append(f"s={s:g}: rotated obstacle not admissible ({exc}); dropped")
            continue
        kept.append(s)
        results.append(solve(triangulate(D), cfg))
    if len(kept) < 2:
        raise EmptyAdmissibleSet("fewer than 2 admissible rotation poses remain")
    radial = is_foliated_schwarz(domain_fixed, a, -eta, fss_polarizer_pool(a, -eta, grid))
    if radial:
        notes.append("fixed domain is radial about the anchor; constant "
                     "eigenvalue expected")
    return build_sweep(kept, results, cfg, notes)


# ---------------------------------------------------------------------------
# eccentric annulus study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleCheck:
    center_t: float
    radius: float
    s_values: tuple
    lambdas: tuple
    converged: tuple
    ordered: bool          # lambda increasing with the first coordinate
    min_margin: float


@dataclass(frozen=True)
class AnnulusStudyReport:
    axis_sweep: SweepResult
    left_segment: Optional[SweepResult]
    mid_segment: Optional[SweepResult]
    right_segment: Optional[SweepResult]
    offaxis_segment: Optional[SweepResult]
    circle_checks: tuple
    argmax_param: float
    argmax_interior: bool
    unimodal: bool
    n_local_maxima: int
    r_bar: float
    r_under: float
    notes: tuple


def _feasible_obstacle(outer, hole, grid, center, rho):
    try:
        ob = rasterize(Disk(center, rho, closed=True), grid)
        return PuncturedDomain(outer, (hole, ob), bc_outer=DIRICHLET,
                               bc_inner=DIRICHLET)
    except (MalformedDomain, OutOfBounds):
        return None


def check_annulus(R: float, r: float, alpha: float, rho: float,
                  step_cells: int) -> None:
    """Raise ValueError unless the hole and the obstacle fit the annulus and
    the placements are sampled at least one cell apart."""
    if not (0 < r < R and 0 <= alpha < R - r and rho > 0):
        raise ValueError("need 0 < r < R, 0 <= alpha < R - r, rho > 0")
    if step_cells < 1:
        raise ValueError(f"step_cells must be at least 1, got {step_cells}")


def annulus_study(R: float, r: float, alpha: float, rho: float,
                  cfg: SolverConfig, grid: Grid,
                  step_cells: int = 1, line_offset: Optional[float] = None,
                  circle_specs: Optional[Sequence[tuple]] = None) -> AnnulusStudyReport:
    """Obstacle-placement study in the eccentric annulus B_R(0) minus a
    closed ball of radius r at (-alpha, 0), all-Dirichlet, with a disk
    obstacle of radius rho.

    Produces the axis sweep lambda(s, 0) with segment verdicts, an optional
    parallel-line sweep for the increasing-through-center claim, same-circle
    ordering checks, and a unimodality report for the right branch.
    """
    check_annulus(R, r, alpha, rho, step_cells)
    d = grid.spacing
    outer = rasterize(Disk((0.0, 0.0), R), grid)
    hole = rasterize(Disk((-alpha, 0.0), r, closed=True), grid)
    r_bar = 0.5 * (R + r - alpha)
    r_under = -0.5 * (R + r + alpha)

    def sweep_line(z: float, s_lo: float, s_hi: float):
        params, results, dropped = [], [], []
        k_lo = math.ceil(s_lo / (step_cells * d) - 1e-9)
        k_hi = math.floor(s_hi / (step_cells * d) + 1e-9)
        for k in range(k_lo, k_hi + 1):
            s = k * step_cells * d
            D = _feasible_obstacle(outer, hole, grid, (s, z), rho)
            if D is None:
                dropped.append(s)
                continue
            params.append(s)
            results.append(solve(triangulate(D), cfg))
        return params, results, dropped

    notes = []
    ax_params, ax_results, ax_dropped = sweep_line(0.0, -R, R)
    if len(ax_params) < 2:
        raise EmptyAdmissibleSet("no admissible axis placements for the obstacle")
    if ax_dropped:
        notes.append(f"axis: {len(ax_dropped)} placements dropped as infeasible")
    axis_sweep = build_sweep(ax_params, ax_results, cfg)

    def segment(lo, hi, label):
        idx = [i for i, s in enumerate(ax_params) if lo - 1e-12 <= s <= hi + 1e-12]
        if len(idx) < 2:
            notes.append(f"{label} segment [{lo:g}, {hi:g}] has "
                         f"{len(idx)} admissible samples; no verdict")
            return None
        ps = [ax_params[i] for i in idx]
        rs = [ax_results[i] for i in idx]
        return build_sweep(ps, rs, cfg)

    left = segment(-R, r_under, "left-increasing")
    mid = segment(-alpha, 0.0, "mid-increasing")
    right = segment(r_bar, R, "right-decreasing")

    offaxis = None
    if line_offset is not None:
        off_params, off_results, off_dropped = sweep_line(float(line_offset),
                                                          -alpha, 0.0)
        if len(off_params) >= 2:
            offaxis = build_sweep(off_params, off_results, cfg)
        else:
            notes.append("off-axis line has fewer than 2 admissible samples")

    # unimodality of the right branch (between the hole and the outer wall)
    right_idx = [i for i, s in enumerate(ax_params) if s > 0.0]
    lam_right = [ax_results[i].lam for i in right_idx]
    s_right = [ax_params[i] for i in right_idx]
    n_max = 0
    argmax_param = float("nan")
    argmax_interior = False
    if lam_right:
        for i in range(1, len(lam_right) - 1):  # interior local maxima
            if lam_right[i - 1] < lam_right[i] >= lam_right[i + 1]:
                n_max += 1
        j = int(np.argmax(lam_right))
        argmax_param = s_right[j]
        argmax_interior = 0 < j < len(lam_right) - 1
    unimodal = n_max == 1 and argmax_interior

    circle_checks = []
    if circle_specs is None:
        circle_specs = ((0.0, 0.5), (-alpha, 0.45))
    for (t, beta) in circle_specs:
        angles = (0.5 * math.pi, math.pi / 3.0, math.pi / 6.0, 0.0)
        pts = [(t + beta * math.cos(phi), beta * math.sin(phi)) for phi in angles]
        svals, lams, convs = [], [], []
        for (sx, sy) in pts:
            D = _feasible_obstacle(outer, hole, grid, (sx, sy), rho)
            if D is None:
                continue
            res = solve(triangulate(D), cfg)
            svals.append(sx)
            lams.append(res.lam)
            convs.append(res.converged)
        ordered = True
        margins = []
        for i in range(len(svals) - 1):
            if not (convs[i] and convs[i + 1]):
                continue
            dlam = (lams[i + 1] - lams[i]) / max(abs(lams[i]), 1e-300)
            margins.append(abs(dlam))
            if lams[i + 1] <= lams[i]:
                ordered = False
        circle_checks.append(CircleCheck(t, beta, tuple(svals), tuple(lams),
                                         tuple(convs), ordered,
                                         min(margins) if margins else 0.0))

    return AnnulusStudyReport(axis_sweep, left, mid, right, offaxis,
                              tuple(circle_checks), argmax_param,
                              argmax_interior, unimodal, n_max, r_bar,
                              r_under, tuple(notes))


# ---------------------------------------------------------------------------
# eigenfunction symmetry check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    lam: float
    converged: bool
    defects: tuple          # per pool polarizer, sup|P_H u - u| / sup u
    max_defect: float
    result: EigenResult = field(compare=False, repr=False)  # the solve

    def to_dict(self) -> dict:
        """The solve's record (its u left out), defects and max_defect."""
        return {**self.result.to_record(), "defects": list(self.defects),
                "max_defect": self.max_defect}


def symmetry_check(D: PuncturedDomain, a, eta, cfg: SolverConfig
                   ) -> SymmetryReport:
    """Solve on D and measure how far the eigenfunction is from its own
    polarization over the anchored polarizer pool."""
    check_unit(eta, "axis direction")
    a = np.asarray(a, dtype=float)
    eta = np.asarray(eta, dtype=float)
    pool = fss_polarizer_pool(a, eta, D.grid)
    if not pool:
        raise AssumptionViolated(
            "no grid-compatible polarizers anchored at the symmetry center")
    if not is_foliated_schwarz(D.free(), a, eta, pool):
        raise AssumptionViolated(
            "domain is not foliated Schwarz symmetric about the anchor ray")
    for H in pool:
        if D.bc_outer == NEUMANN and not is_reflection_symmetric(H, D.outer):
            raise AssumptionViolated("Neumann outer set breaks the pool symmetry")
        for ob, bc in zip(D.obstacles, D.bc_obstacles):
            if bc == NEUMANN and not is_reflection_symmetric(H, ob):
                raise AssumptionViolated("Neumann hole breaks the pool symmetry")

    res = solve(triangulate(D), cfg)
    sup = res.u.max_abs()
    defects = []
    for H in pool:
        pu = polarize_function(H, res.u)
        defects.append(float(np.abs(pu.values - res.u.values).max()) / sup)
    return SymmetryReport(res.lam, res.converged, tuple(defects),
                          max(defects), res)
