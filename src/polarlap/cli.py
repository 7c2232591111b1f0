"""Command-line surface: JSON-shaped scenario configs, runners, persistence.

One scenario per invocation:

    polarlap <kind> --config scenario.cfg [--out DIR] [--p P] [--grid-n N]

Exit codes: 0 success, 1 configuration error, 2 violated scenario
assumption, inadmissible polarizer or a domain left without free nodes,
3 unconverged solve present in the results, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import (
    AssumptionViolated,
    EmptyAdmissibleSet,
    IncompatiblePolarizer,
    MalformedDomain,
    NoFreeNodes,
    NotAdmissible,
    OutOfBounds,
    ParseError,
    PolarlapError,
    SymmetryHypothesisViolated,
    ValidationError,
    ZeroFunction,
)
from .geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Ellipse,
    Grid,
    Polarizer,
    PuncturedDomain,
    Rectangle,
    Rhombus,
    ShapeSpec,
    UnionShape,
    rasterize,
    rotated_obstacle,
)
from .eigensolve import SolverConfig, solve
from .discretize import triangulate
from . import experiments as xp
from . import formats

KINDS = ("solve", "fk-check", "translate-sweep", "rotate-sweep",
         "annulus-study", "symmetry-check")


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    outer: ShapeSpec
    obstacles: tuple = ()
    bc_outer: str = DIRICHLET
    bc_inner: str = DIRICHLET
    bc_obstacles: Optional[tuple] = None
    allow_pure_neumann: bool = False

    def build(self, grid: Grid) -> PuncturedDomain:
        return PuncturedDomain(
            rasterize(self.outer, grid),
            tuple(rasterize(ob, grid) for ob in self.obstacles),
            bc_outer=self.bc_outer, bc_inner=self.bc_inner,
            bc_obstacles=self.bc_obstacles,
            allow_pure_neumann=self.allow_pure_neumann)


@dataclass(frozen=True)
class TranslateSpec:
    outer: ShapeSpec
    obstacle: ShapeSpec
    direction: tuple
    s_values: tuple
    bc_outer: str = DIRICHLET
    bc_obstacle: str = DIRICHLET
    fixed_holes: tuple = ()


@dataclass(frozen=True)
class RotateSpec:
    variant: str
    outer: ShapeSpec
    obstacle: ShapeSpec
    anchor: tuple
    axis: tuple
    s_values: tuple
    fixed_hole: Optional[ShapeSpec] = None


@dataclass(frozen=True)
class AnnulusSpec:
    outer_radius: float
    hole_radius: float
    eccentricity: float
    obstacle_radius: float
    step_cells: int = 1
    line_offset: Optional[float] = None
    circles: tuple = ()


@dataclass(frozen=True)
class SymmetrySpec:
    anchor: tuple
    axis: tuple


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    grid: Grid
    solver: SolverConfig = SolverConfig()
    output: Optional[str] = None
    domain: Optional[DomainSpec] = None
    polarizer: Optional[Polarizer] = None
    translate: Optional[TranslateSpec] = None
    rotate: Optional[RotateSpec] = None
    annulus: Optional[AnnulusSpec] = None
    symmetry: Optional[SymmetrySpec] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}", field="kind")
        need = {
            "solve": ("domain",),
            "fk-check": ("domain", "polarizer"),
            "translate-sweep": ("translate",),
            "rotate-sweep": ("rotate",),
            "annulus-study": ("annulus",),
            "symmetry-check": ("domain", "symmetry"),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ValidationError(
                    f"kind {self.kind!r} requires the {name!r} section", field=name)


# -- JSON <-> dataclass ------------------------------------------------------


def _take(d: dict, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object", field=where)
    unknown = set(d) - allowed
    if unknown:
        raise ValidationError(
            f"unknown key(s) {sorted(unknown)} in {where}", field=where)


def _req(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"missing {where}.{key}", field=f"{where}.{key}")
    return d[key]


def _pair(v, where: str) -> tuple:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValidationError(f"{where} must be a pair of numbers", field=where)
    return (float(v[0]), float(v[1]))


def _bc(v, where: str) -> str:
    if v not in (DIRICHLET, NEUMANN):
        raise ValidationError(f"{where} must be 'dirichlet' or 'neumann'",
                              field=where)
    return v


def shape_from_dict(d: dict, where: str = "shape") -> ShapeSpec:
    _take(d, {"type", "center", "radius", "lo", "hi", "half_diagonal",
              "semi_axes", "angle", "closed", "members"}, where)
    kind = _req(d, "type", where)
    closed = bool(d.get("closed", False))
    try:
        if kind == "disk":
            return Disk(_pair(_req(d, "center", where), f"{where}.center"),
                        float(_req(d, "radius", where)), closed)
        if kind == "rectangle":
            return Rectangle(_pair(_req(d, "lo", where), f"{where}.lo"),
                             _pair(_req(d, "hi", where), f"{where}.hi"), closed)
        if kind == "rhombus":
            return Rhombus(_pair(_req(d, "center", where), f"{where}.center"),
                           float(_req(d, "half_diagonal", where)), closed)
        if kind == "ellipse":
            return Ellipse(_pair(_req(d, "center", where), f"{where}.center"),
                           _pair(_req(d, "semi_axes", where), f"{where}.semi_axes"),
                           float(d.get("angle", 0.0)), closed)
        if kind == "union":
            members = _req(d, "members", where)
            return UnionShape(tuple(shape_from_dict(m, f"{where}.members[{i}]")
                                    for i, m in enumerate(members)))
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}", field=where) from exc
    raise ValidationError(f"{where}.type {kind!r} is not a known shape",
                          field=f"{where}.type")


def shape_to_dict(shape: ShapeSpec) -> dict:
    if isinstance(shape, Disk):
        return {"type": "disk", "center": list(shape.center),
                "radius": shape.radius, "closed": shape.closed}
    if isinstance(shape, Rectangle):
        return {"type": "rectangle", "lo": list(shape.lo), "hi": list(shape.hi),
                "closed": shape.closed}
    if isinstance(shape, Rhombus):
        return {"type": "rhombus", "center": list(shape.center),
                "half_diagonal": shape.half_diagonal, "closed": shape.closed}
    if isinstance(shape, Ellipse):
        return {"type": "ellipse", "center": list(shape.center),
                "semi_axes": list(shape.semi_axes), "angle": shape.angle,
                "closed": shape.closed}
    if isinstance(shape, UnionShape):
        return {"type": "union",
                "members": [shape_to_dict(m) for m in shape.members]}
    raise TypeError(f"unknown shape {type(shape).__name__}")


def _domain_from_dict(d: dict) -> DomainSpec:
    _take(d, {"outer", "obstacles", "bc_outer", "bc_inner", "bc_obstacles",
              "allow_pure_neumann"}, "domain")
    obstacles = tuple(shape_from_dict(ob, f"domain.obstacles[{i}]")
                      for i, ob in enumerate(d.get("obstacles", [])))
    bc_obs = d.get("bc_obstacles")
    if bc_obs is not None:
        bc_obs = tuple(_bc(b, f"domain.bc_obstacles[{i}]")
                       for i, b in enumerate(bc_obs))
    return DomainSpec(
        shape_from_dict(_req(d, "outer", "domain"), "domain.outer"),
        obstacles,
        _bc(d.get("bc_outer", DIRICHLET), "domain.bc_outer"),
        _bc(d.get("bc_inner", DIRICHLET), "domain.bc_inner"),
        bc_obs,
        bool(d.get("allow_pure_neumann", False)))


def _domain_to_dict(spec: DomainSpec) -> dict:
    out = {"outer": shape_to_dict(spec.outer),
           "obstacles": [shape_to_dict(ob) for ob in spec.obstacles],
           "bc_outer": spec.bc_outer, "bc_inner": spec.bc_inner,
           "allow_pure_neumann": spec.allow_pure_neumann}
    if spec.bc_obstacles is not None:
        out["bc_obstacles"] = list(spec.bc_obstacles)
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON-shaped scenario config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}", line=exc.lineno) from exc
    _take(raw, {"kind", "grid", "solver", "output", "domain", "polarizer",
                "translate", "rotate", "annulus", "symmetry"}, "config")
    kind = _req(raw, "kind", "config")

    gd = _req(raw, "grid", "config")
    _take(gd, {"origin", "spacing", "nx", "ny"}, "grid")
    for key in ("origin", "spacing", "nx", "ny"):
        _req(gd, key, "grid")
    try:
        grid = Grid(_pair(gd["origin"], "grid.origin"), float(gd["spacing"]),
                    int(gd["nx"]), int(gd["ny"]))
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}", field="grid") from exc

    sd = raw.get("solver", {})
    _take(sd, {"p", "outer_tol", "inner_tol", "max_outer", "max_inner",
               "smoothing_eps"}, "solver")
    base = SolverConfig()
    try:
        solver = SolverConfig(
            float(sd.get("p", base.p)),
            float(sd.get("outer_tol", base.outer_tol)),
            float(sd.get("inner_tol", base.inner_tol)),
            int(sd.get("max_outer", base.max_outer)),
            int(sd.get("max_inner", base.max_inner)),
            float(sd.get("smoothing_eps", base.smoothing_eps)))
    except ValueError as exc:
        raise ValidationError(f"solver: {exc}", field="solver") from exc

    domain = polarizer = translate = rotate = annulus = symmetry = None
    if "domain" in raw:
        domain = _domain_from_dict(raw["domain"])
    if "polarizer" in raw:
        pd = raw["polarizer"]
        _take(pd, {"normal", "offset"}, "polarizer")
        try:
            polarizer = Polarizer(_pair(_req(pd, "normal", "polarizer"),
                                        "polarizer.normal"),
                                  float(_req(pd, "offset", "polarizer")))
        except ValueError as exc:
            raise ValidationError(f"polarizer: {exc}", field="polarizer") from exc
    if "translate" in raw:
        td = raw["translate"]
        _take(td, {"outer", "obstacle", "direction", "s_values", "bc_outer",
                   "bc_obstacle", "fixed_holes"}, "translate")
        translate = TranslateSpec(
            shape_from_dict(_req(td, "outer", "translate"), "translate.outer"),
            shape_from_dict(_req(td, "obstacle", "translate"), "translate.obstacle"),
            _pair(_req(td, "direction", "translate"), "translate.direction"),
            tuple(float(s) for s in _req(td, "s_values", "translate")),
            _bc(td.get("bc_outer", DIRICHLET), "translate.bc_outer"),
            _bc(td.get("bc_obstacle", DIRICHLET), "translate.bc_obstacle"),
            tuple(shape_from_dict(fh, f"translate.fixed_holes[{i}]")
                  for i, fh in enumerate(td.get("fixed_holes", []))))
    if "rotate" in raw:
        rd = raw["rotate"]
        _take(rd, {"variant", "outer", "fixed_hole", "obstacle", "anchor",
                   "axis", "s_values"}, "rotate")
        fixed = rd.get("fixed_hole")
        rotate = RotateSpec(
            str(_req(rd, "variant", "rotate")),
            shape_from_dict(_req(rd, "outer", "rotate"), "rotate.outer"),
            shape_from_dict(_req(rd, "obstacle", "rotate"), "rotate.obstacle"),
            _pair(_req(rd, "anchor", "rotate"), "rotate.anchor"),
            _pair(_req(rd, "axis", "rotate"), "rotate.axis"),
            tuple(float(s) for s in _req(rd, "s_values", "rotate")),
            shape_from_dict(fixed, "rotate.fixed_hole") if fixed is not None else None)
        try:
            for s in rotate.s_values:
                rotated_obstacle(rotate.obstacle, rotate.anchor, rotate.axis, s)
        except ValueError as exc:
            raise ValidationError(f"rotate.s_values: {exc}",
                                  field="rotate.s_values") from exc
    if "annulus" in raw:
        ad = raw["annulus"]
        _take(ad, {"outer_radius", "hole_radius", "eccentricity",
                   "obstacle_radius", "step_cells", "line_offset", "circles"},
              "annulus")
        circles = tuple(tuple(_pair(c, f"annulus.circles[{i}]"))
                        for i, c in enumerate(ad.get("circles", [])))
        lof = ad.get("line_offset")
        annulus = AnnulusSpec(
            float(_req(ad, "outer_radius", "annulus")),
            float(_req(ad, "hole_radius", "annulus")),
            float(_req(ad, "eccentricity", "annulus")),
            float(_req(ad, "obstacle_radius", "annulus")),
            int(ad.get("step_cells", 1)),
            float(lof) if lof is not None else None,
            circles)
        try:
            xp.check_annulus(annulus.outer_radius, annulus.hole_radius,
                             annulus.eccentricity, annulus.obstacle_radius)
        except ValueError as exc:
            raise ValidationError(f"annulus: {exc}", field="annulus") from exc
    if "symmetry" in raw:
        yd = raw["symmetry"]
        _take(yd, {"anchor", "axis"}, "symmetry")
        symmetry = SymmetrySpec(_pair(_req(yd, "anchor", "symmetry"),
                                      "symmetry.anchor"),
                                _pair(_req(yd, "axis", "symmetry"),
                                      "symmetry.axis"))

    return ScenarioConfig(kind, grid, solver, raw.get("output"), domain,
                          polarizer, translate, rotate, annulus, symmetry)


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON text; parse_config(emit_config(c)) == c."""
    out: dict = {
        "kind": cfg.kind,
        "grid": {"origin": list(cfg.grid.origin), "spacing": cfg.grid.spacing,
                 "nx": cfg.grid.nx, "ny": cfg.grid.ny},
        "solver": {"p": cfg.solver.p, "outer_tol": cfg.solver.outer_tol,
                   "inner_tol": cfg.solver.inner_tol,
                   "max_outer": cfg.solver.max_outer,
                   "max_inner": cfg.solver.max_inner,
                   "smoothing_eps": cfg.solver.smoothing_eps},
    }
    if cfg.output is not None:
        out["output"] = cfg.output
    if cfg.domain is not None:
        out["domain"] = _domain_to_dict(cfg.domain)
    if cfg.polarizer is not None:
        out["polarizer"] = {"normal": list(cfg.polarizer.normal),
                            "offset": cfg.polarizer.offset}
    if cfg.translate is not None:
        t = cfg.translate
        out["translate"] = {"outer": shape_to_dict(t.outer),
                            "obstacle": shape_to_dict(t.obstacle),
                            "direction": list(t.direction),
                            "s_values": list(t.s_values),
                            "bc_outer": t.bc_outer,
                            "bc_obstacle": t.bc_obstacle,
                            "fixed_holes": [shape_to_dict(fh)
                                            for fh in t.fixed_holes]}
    if cfg.rotate is not None:
        r = cfg.rotate
        out["rotate"] = {"variant": r.variant, "outer": shape_to_dict(r.outer),
                         "obstacle": shape_to_dict(r.obstacle),
                         "anchor": list(r.anchor), "axis": list(r.axis),
                         "s_values": list(r.s_values)}
        if r.fixed_hole is not None:
            out["rotate"]["fixed_hole"] = shape_to_dict(r.fixed_hole)
    if cfg.annulus is not None:
        a = cfg.annulus
        out["annulus"] = {"outer_radius": a.outer_radius,
                          "hole_radius": a.hole_radius,
                          "eccentricity": a.eccentricity,
                          "obstacle_radius": a.obstacle_radius,
                          "step_cells": a.step_cells,
                          "circles": [list(c) for c in a.circles]}
        if a.line_offset is not None:
            out["annulus"]["line_offset"] = a.line_offset
    if cfg.symmetry is not None:
        out["symmetry"] = {"anchor": list(cfg.symmetry.anchor),
                           "axis": list(cfg.symmetry.axis)}
    return formats.dumps_json(out)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def emit_plot(sweep: "xp.SweepResult", path, param_name: str = "param") -> None:
    """Write the single-polyline SVG for a sweep (needs >= 2 points)."""
    if len(sweep.params) < 2:
        raise ValueError("sweep plot needs at least 2 points")
    try:
        _write(Path(path), formats.sweep_to_svg(sweep.params, sweep.lambdas,
                                                sweep.converged, param_name))
    except OSError as exc:
        raise IOError(f"cannot write plot: {exc}") from exc


def _write_sweep_outputs(out: Path, sweep: xp.SweepResult, verdict: dict,
                         param_name: str):
    _write(out / "result.csv", formats.sweep_to_csv(
        sweep.params, sweep.lambdas, sweep.converged, sweep.outer_iters,
        sweep.residuals))
    _write(out / "verdict.json", formats.dumps_json(verdict))
    if len(sweep.params) >= 2:
        _write(out / "sweep.svg", formats.sweep_to_svg(
            sweep.params, sweep.lambdas, sweep.converged, param_name))


def run(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> int:
    """Execute one scenario and persist its outputs; returns the exit code."""
    out = Path(out_dir or cfg.output or ".")
    t0 = time.time()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 4

    try:
        unconverged = _dispatch(cfg, out)
    except (AssumptionViolated, NotAdmissible, SymmetryHypothesisViolated,
            IncompatiblePolarizer, EmptyAdmissibleSet, MalformedDomain,
            OutOfBounds, NoFreeNodes, ZeroFunction) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4

    try:
        _write(out / "run.log",
               f"scenario {cfg.kind} finished in {time.time() - t0:.3f} s\n")
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    if unconverged:
        print("warning: unconverged solve present in results", file=sys.stderr)
        return 3
    return 0


def _dispatch(cfg: ScenarioConfig, out: Path) -> bool:
    """Run the scenario, write outputs, return True if anything unconverged."""
    kind = cfg.kind
    if kind == "solve":
        D = cfg.domain.build(cfg.grid)
        res = solve(triangulate(D), cfg.solver)
        _write(out / "result.csv", formats.sweep_to_csv(
            [0.0], [res.lam], [res.converged], [res.outer_iters], [res.residual]))
        _write(out / "verdict.json", formats.dumps_json(res.to_record()))
        _write(out / "eigenfunction.pgm", formats.function_to_pgm(res.u))
        _write(out / "eigenfunction.csv", formats.function_to_csv(res.u))
        return not res.converged

    if kind == "fk-check":
        D = cfg.domain.build(cfg.grid)
        verdict = xp.fk_check(D, cfg.polarizer, cfg.solver.p, cfg.solver)
        _write(out / "result.csv", formats.sweep_to_csv(
            [0.0, 1.0], [verdict.lambda_before, verdict.lambda_after],
            [verdict.converged_before, verdict.converged_after], [0, 0],
            [0.0, 0.0]))
        _write(out / "verdict.json", formats.dumps_json(verdict.to_dict()))
        return not (verdict.converged_before and verdict.converged_after)

    if kind == "translate-sweep":
        t = cfg.translate
        sweep = xp.translate_sweep(t.outer, t.obstacle, t.direction, t.s_values,
                                   cfg.solver.p, cfg.grid, t.bc_outer,
                                   t.bc_obstacle, cfg.solver,
                                   fixed_holes=t.fixed_holes)
        _write_sweep_outputs(out, sweep, sweep.to_dict(), "shift")
        return not all(sweep.converged)

    if kind == "rotate-sweep":
        r = cfg.rotate
        sweep = xp.rotate_sweep(r.variant, r.outer, r.fixed_hole, r.obstacle,
                                r.anchor, r.axis, r.s_values, cfg.solver.p,
                                cfg.grid, cfg.solver)
        _write_sweep_outputs(out, sweep, sweep.to_dict(), "cos(angle)")
        return not all(sweep.converged)

    if kind == "annulus-study":
        a = cfg.annulus
        report = xp.annulus_study(a.outer_radius, a.hole_radius,
                                  a.eccentricity, a.obstacle_radius,
                                  cfg.solver.p, cfg.grid, cfg.solver,
                                  a.step_cells, a.line_offset,
                                  a.circles or None)
        sweep = report.axis_sweep
        _write_sweep_outputs(out, sweep, report.to_dict(), "shift")
        return not all(sweep.converged)

    if kind == "symmetry-check":
        D = cfg.domain.build(cfg.grid)
        sym = cfg.symmetry
        report = xp.symmetry_check(D, sym.anchor, sym.axis, cfg.solver.p,
                                   cfg.solver)
        _write(out / "result.csv", formats.sweep_to_csv(
            [0.0], [report.lam], [report.converged], [0], [0.0]))
        _write(out / "verdict.json", formats.dumps_json(report.to_dict()))
        _write(out / "eigenfunction.pgm", formats.function_to_pgm(report.u))
        return not report.converged

    raise ValidationError(f"unknown kind {kind!r}", field="kind")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    solver = cfg.solver
    grid = cfg.grid
    if args.p is not None:
        solver = replace(solver, p=args.p)
    if args.grid_n is not None:
        n = args.grid_n
        # preserve the covered box: rescale the spacing with the cell count
        spacing = grid.spacing * grid.nx / n
        grid = Grid(grid.origin, spacing, n, n)
    return replace(cfg, solver=solver, grid=grid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarlap",
        description="Polarization and p-Laplacian eigenvalue scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True, help="scenario config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--p", type=float, default=None,
                        help="override solver exponent p")
        sp.add_argument("--grid-n", type=int, default=None, dest="grid_n",
                        help="override grid to n x n cells over the same box")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        cfg = parse_config(text)
        if cfg.kind != args.command:
            raise ValidationError(
                f"config kind {cfg.kind!r} does not match subcommand "
                f"{args.command!r}", field="kind")
        cfg = _apply_overrides(cfg, args)
    except PolarlapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return run(cfg, args.out)


def console_main() -> None:
    sys.exit(main())
