"""Scenario specs and runners: assemble punctured domains, solve, and render
verdicts for the polarization inequality and the obstacle-motion
monotonicity checks.

Each scenario is one frozen spec dataclass, which is also its config
section.  A spec checks its own rules when it is built and raises
ValueError (a SpecError naming the field); a runner takes its spec whole
and checks only what needs the grid or the rasters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (
    AssumptionViolated,
    EmptyAdmissibleSet,
    IncompatiblePolarizer,
    MalformedDomain,
    OutOfBounds,
    SpecError,
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


def check_unit(v, name: str, field: str) -> None:
    """Raise SpecError on field unless the direction v has unit length
    (within 1e-9)."""
    # written as not (... <= tol) so that NaN and infinite components fail
    if not abs(float(np.hypot(*np.asarray(v, dtype=float))) - 1.0) <= 1e-9:
        raise SpecError(f"{name} must be a unit vector", field)


# ---------------------------------------------------------------------------
# scenario domains
# ---------------------------------------------------------------------------

BC = Literal[DIRICHLET, NEUMANN]
Pair = tuple[float, float]


@dataclass(frozen=True)
class DomainSpec:
    outer: ShapeSpec
    obstacles: tuple[ShapeSpec, ...] = ()
    bc_outer: BC = DIRICHLET
    bc_inner: BC = DIRICHLET
    bc_obstacles: Optional[tuple[BC, ...]] = None
    allow_pure_neumann: bool = False

    def __post_init__(self):
        n = len(self.obstacles)
        if self.bc_obstacles is not None and len(self.bc_obstacles) != n:
            raise SpecError(f"expected a list of {n}, got "
                            f"{json.dumps(self.bc_obstacles)}", "bc_obstacles")

    def build(self, grid: Grid) -> PuncturedDomain:
        return PuncturedDomain(
            rasterize(self.outer, grid),
            tuple(rasterize(ob, grid) for ob in self.obstacles),
            bc_outer=self.bc_outer, bc_inner=self.bc_inner,
            bc_obstacles=self.bc_obstacles,
            allow_pure_neumann=self.allow_pure_neumann)


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
    direction: str       # increasing | decreasing | constant | mixed, or
                         # unresolved below two converged points
    min_margin: float    # smallest |dlambda|/lambda among strict pairs
    notes: tuple
    p_in_strict_range: bool  # p > strict_p_min(): inside the paper's theorem


def _classify(params, lambdas, converged, eps) -> tuple[str, float]:
    """Direction over the converged subsequence.

    "constant" means the whole sweep stays within the discretization slack
    EPS_DISC_FACTOR; strict directions need every consecutive converged
    pair on the same side, with min_margin the smallest relative step among
    pairs exceeding the strictness floor eps.  Fewer than two converged
    points decide nothing: "unresolved", margin 0.
    """
    lams = [l for l, c in zip(lambdas, converged) if c]
    if len(lams) < 2:
        return "unresolved", 0.0
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


def _check_nondecreasing(s_values) -> None:
    if any(s > t for s, t in zip(s_values, s_values[1:])):
        raise AssumptionViolated("s_values must be nondecreasing")


@dataclass(frozen=True)
class TranslateSpec:
    outer: ShapeSpec
    obstacle: ShapeSpec
    direction: Pair
    s_values: tuple[float, ...]
    bc_outer: BC = DIRICHLET
    bc_obstacle: BC = DIRICHLET
    fixed_holes: tuple[ShapeSpec, ...] = ()

    def __post_init__(self):
        check_unit(self.direction, "translation direction", "direction")


def translate_sweep(spec: TranslateSpec, cfg: SolverConfig, grid: Grid
                    ) -> SweepResult:
    """First eigenvalue along obstacle translations s * direction.

    The fixed domain is the outer shape minus the optional Dirichlet fixed
    holes (it may be multiply connected, like an annulus).  It must be
    polarization-invariant toward the start line and the obstacle Steiner
    symmetric about it; offsets whose invariance or containment fails are
    dropped with a note.
    """
    h = np.asarray(spec.direction, dtype=float)
    s_values = spec.s_values
    axis, _ = normal_axis(h)
    outer = rasterize(spec.outer, grid)
    holes = tuple(rasterize(sp, grid) for sp in spec.fixed_holes)
    domain_fixed = outer
    for hole in holes:
        domain_fixed = domain_fixed.minus(hole)
    H0 = Polarizer((float(h[0]), float(h[1])), 0.0)
    if not is_polarization_invariant(H0, domain_fixed):
        raise AssumptionViolated(
            "fixed domain is not polarization-invariant about the start line "
            "(outer-invariance hypothesis)")
    if not is_steiner_symmetric(rasterize(spec.obstacle, grid), axis, 0.0):
        raise AssumptionViolated(
            "obstacle is not Steiner symmetric about the start line "
            "(obstacle-symmetry hypothesis)")
    d = grid.spacing
    for s in s_values:
        for comp in (s * h[0], s * h[1]):
            if abs(comp / d - round(comp / d)) > 1e-9:
                raise AssumptionViolated(
                    f"shift {s} * h is not a whole number of cells")
    _check_nondecreasing(s_values)

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
            ob_s = rasterize(translated_obstacle(spec.obstacle, h, s), grid)
            D = PuncturedDomain(outer, holes + (ob_s,), bc_outer=spec.bc_outer,
                                bc_inner=DIRICHLET,
                                bc_obstacles=(DIRICHLET,) * len(holes)
                                + (spec.bc_obstacle,))
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


@dataclass(frozen=True)
class RotateSpec:
    variant: str
    outer: ShapeSpec
    obstacle: ShapeSpec
    anchor: Pair
    axis: Pair
    s_values: tuple[float, ...]
    fixed_hole: Optional[ShapeSpec] = None

    def __post_init__(self):
        if self.variant not in (NEUMANN_INNER, NEUMANN_OUTER):
            raise SpecError(f"unknown variant {self.variant!r}", "variant")
        check_unit(self.axis, "axis direction", "axis")
        for s in self.s_values:
            try:
                rotated_obstacle(self.obstacle, self.anchor, s)
            except ValueError as exc:
                raise SpecError(str(exc), "s_values") from exc


def rotate_sweep(spec: RotateSpec, cfg: SolverConfig, grid: Grid
                 ) -> SweepResult:
    """First eigenvalue along obstacle rotations about the anchor a.

    The fixed domain and the obstacle (reference pose) must be foliated
    Schwarz symmetric about a + R+ axis, checked over the grid-compatible
    anchored pool.  Rotated poses that leave the domain are dropped with a
    note.
    """
    variant, fixed_hole = spec.variant, spec.fixed_hole
    a = np.asarray(spec.anchor, dtype=float)
    eta = np.asarray(spec.axis, dtype=float)

    def off_anchor(shape) -> bool:
        return not isinstance(shape, Disk) or math.hypot(
            shape.center[0] - a[0], shape.center[1] - a[1]) > 1e-12

    if variant == NEUMANN_OUTER and off_anchor(spec.outer):
        raise AssumptionViolated(
            "Neumann-outer variant needs a disk outer set centered at the anchor")
    if variant == NEUMANN_INNER and fixed_hole is not None and off_anchor(fixed_hole):
        raise AssumptionViolated(
            "Neumann-inner variant needs a disk hole centered at the anchor")
    _check_nondecreasing(spec.s_values)

    pool = fss_polarizer_pool(a, eta, grid)
    if not pool:
        raise AssumptionViolated(
            "no grid-compatible polarizers anchored at the rotation center; "
            "align the anchor with the grid nodes")
    outer = rasterize(spec.outer, grid)
    fixed = rasterize(fixed_hole, grid) if fixed_hole is not None else None
    domain_fixed = outer if fixed is None else outer.minus(fixed)
    if not is_foliated_schwarz(domain_fixed, a, eta, pool):
        raise AssumptionViolated(
            "fixed domain is not foliated Schwarz symmetric about the anchor ray")
    if not is_foliated_schwarz(rasterize(spec.obstacle, grid), a, eta, pool):
        raise AssumptionViolated(
            "obstacle reference pose is not foliated Schwarz symmetric about "
            "the anchor ray")

    bc_outer = NEUMANN if variant == NEUMANN_OUTER else DIRICHLET
    fixed_bc = NEUMANN if variant == NEUMANN_INNER else DIRICHLET
    notes, kept, results = [], [], []
    for s in spec.s_values:
        try:
            ob_s = rasterize(rotated_obstacle(spec.obstacle, a, s), grid)
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


@dataclass(frozen=True)
class AnnulusSpec:
    outer_radius: float
    hole_radius: float
    eccentricity: float
    obstacle_radius: float
    step_cells: int = 1
    line_offset: Optional[float] = None
    circles: tuple[Pair, ...] = ()

    def __post_init__(self):
        # the hole and the obstacle fit the annulus, and the placements are
        # sampled at least one cell apart
        R, r, rho = self.outer_radius, self.hole_radius, self.obstacle_radius
        if not (0 < r < R and 0 <= self.eccentricity < R - r and rho > 0):
            raise ValueError("need 0 < r < R, 0 <= alpha < R - r, rho > 0")
        if self.step_cells < 1:
            raise ValueError(
                f"step_cells must be at least 1, got {self.step_cells}")


def annulus_study(spec: AnnulusSpec, cfg: SolverConfig, grid: Grid
                  ) -> AnnulusStudyReport:
    """Obstacle-placement study in the eccentric annulus B_R(0) minus a
    closed ball of radius r at (-alpha, 0), all-Dirichlet, with a disk
    obstacle of radius rho.

    Produces the axis sweep lambda(s, 0) with segment verdicts, an optional
    parallel-line sweep at height line_offset for the
    increasing-through-center claim, same-circle ordering checks (two
    built-in circles when circles is empty), and a unimodality report for
    the right branch.
    """
    R, r = spec.outer_radius, spec.hole_radius
    alpha, rho = spec.eccentricity, spec.obstacle_radius
    step_cells = spec.step_cells
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
    if spec.line_offset is not None:
        off_params, off_results, off_dropped = sweep_line(spec.line_offset,
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
    for (t, beta) in spec.circles or ((0.0, 0.5), (-alpha, 0.45)):
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


@dataclass(frozen=True)
class SymmetrySpec:
    anchor: Pair
    axis: Pair

    def __post_init__(self):
        check_unit(self.axis, "axis direction", "axis")


def symmetry_check(D: PuncturedDomain, spec: SymmetrySpec, cfg: SolverConfig
                   ) -> SymmetryReport:
    """Solve on D and measure how far the eigenfunction is from its own
    polarization over the polarizer pool anchored at the spec's ray."""
    a = np.asarray(spec.anchor, dtype=float)
    eta = np.asarray(spec.axis, dtype=float)
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
