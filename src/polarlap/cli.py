"""Command-line surface: JSON-shaped scenario configs, runners, persistence.

One scenario per invocation:

    polarlap <kind> --config scenario.cfg [--out DIR] [--p P] [--grid-n N]

A config reads into a ScenarioConfig: the grid, the solver and the
sections its kind needs.  Each scenario section is one of the spec
dataclasses of experiments, which checks its own rules as it is built and
is passed whole to its runner.

Exit codes: 0 success, 1 configuration error, 2 violated scenario
assumption, inadmissible polarizer or a domain left without free nodes,
3 unconverged solve present in the results, 4 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

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
    SpecError,
    SupportMismatch,
    SymmetryHypothesisViolated,
    ValidationError,
    ZeroFunction,
)
from .geometry import Disk, Ellipse, Grid, Polarizer, Rectangle, Rhombus, UnionShape
from .eigensolve import SolverConfig, solve
from .discretize import triangulate
from .experiments import (AnnulusSpec, DomainSpec, RotateSpec, SymmetrySpec,
                          TranslateSpec)
from . import experiments as xp
from . import formats

# each scenario kind and the config sections it requires
KINDS = {
    "solve": ("domain",),
    "fk-check": ("domain", "polarizer"),
    "translate-sweep": ("translate",),
    "rotate-sweep": ("rotate",),
    "annulus-study": ("annulus",),
    "symmetry-check": ("domain", "symmetry"),
}


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

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
            raise ValidationError(f"kind must be one of {tuple(KINDS)}",
                                  field="kind")
        for name in KINDS[self.kind]:
            if getattr(self, name) is None:
                raise ValidationError(
                    f"kind {self.kind!r} requires the {name!r} section", field=name)


# -- JSON <-> dataclass ------------------------------------------------------
#
# ScenarioConfig and the dataclasses it holds (the experiments specs, Grid,
# SolverConfig, Polarizer and the shapes) are the schema: a JSON key is a
# field name, a field without a default is required, and the field's
# annotation picks how its value is read.

_SHAPES = {"disk": Disk, "rectangle": Rectangle, "rhombus": Rhombus,
           "ellipse": Ellipse, "union": UnionShape}
_SHAPE_TAGS = {cls: tag for tag, cls in _SHAPES.items()}
_type_hints = cache(get_type_hints)   # resolving string annotations is slow

# scalar annotation -> (does the JSON value qualify?, what is expected);
# a qualifying value converts by calling the annotation on it
_SCALARS = {
    float: (lambda v: type(v) in (int, float) and math.isfinite(v),
            "a finite number"),
    int: (lambda v: type(v) is int or type(v) is float and v.is_integer(),
          "an integer"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: type(v) is str, "a string"),
}


@contextmanager
def _invalid(where: str):
    """Report a bad value or type raised in the block against where, or
    against the field of where that a SpecError names."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, SpecError):
            where = f"{where}.{exc.field}"
        raise ValidationError(f"{where}: {exc}", field=where) from exc


def _expect(ok: bool, what: str, v) -> None:
    if not ok:
        raise TypeError(f"expected {what}, got {json.dumps(v)}")


def _decode(tp, v, where: str):
    """Read the JSON value v as the annotation tp; errors name where."""
    origin, args = get_origin(tp), get_args(tp)
    with _invalid(where):
        if origin is Union and args[-1] is type(None):         # Optional[X]
            return None if v is None else _decode(Union[args[:-1]], v, where)
        if origin is tuple:
            _expect(type(v) is list, "a list", v)
            types = args[:1] * len(v) if args[-1] is Ellipsis else args
            _expect(len(v) == len(types), f"a list of {len(types)}", v)
            return tuple(_decode(t, x, f"{where}[{i}]")
                         for i, (t, x) in enumerate(zip(types, v)))
        if origin is Literal:
            _expect(v in args, " or ".join(map(json.dumps, args)), v)
            return v
        if tp in _SCALARS:
            qualifies, what = _SCALARS[tp]
            _expect(qualifies(v), what, v)
            return tp(v)
        _expect(type(v) is dict, "an object", v)
        return _decode_object(tp, v, where)


def _decode_object(cls, d: dict, where: str):
    """Build the dataclass cls from the JSON object d; for ShapeSpec, the
    shape that d["type"] names."""
    if get_origin(cls) is Union:
        if "type" not in d:
            raise ValidationError(f"missing {where}.type", field=f"{where}.type")
        cls = _SHAPES[_decode(Literal[tuple(_SHAPES)], d["type"], f"{where}.type")]
        d = {k: v for k, v in d.items() if k != "type"}
    if unknown := set(d) - {f.name for f in fields(cls)}:
        raise ValidationError(
            f"unknown key(s) {sorted(unknown)} in {where}", field=where)
    hints, kwargs = _type_hints(cls), {}
    for f in fields(cls):
        if f.name in d:
            at = f"{where}.{f.name}".removeprefix("config.")
            kwargs[f.name] = _decode(hints[f.name], d[f.name], at)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"missing {where}.{f.name}",
                                  field=f"{where}.{f.name}")
    return cls(**kwargs)


def _encode(v):
    """JSON value of a decoded one: tuples as lists, None fields dropped,
    shapes tagged with their "type"."""
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if not is_dataclass(v):
        return v
    out = {f.name: _encode(getattr(v, f.name)) for f in fields(v)
           if getattr(v, f.name) is not None}
    if type(v) in _SHAPE_TAGS:
        out["type"] = _SHAPE_TAGS[type(v)]
    return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON-shaped scenario config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}", line=exc.lineno) from exc
    except (ValueError, RecursionError) as exc:  # past Python's digit or depth limit
        raise ParseError(str(exc)) from exc
    return _decode(ScenarioConfig, raw, "config")


def emit_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON text; parse_config(emit_config(c)) == c."""
    return formats.dumps_json(_encode(cfg))


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def emit_plot(sweep: "xp.SweepResult", path, param_name: str = "param") -> None:
    """Write the single-polyline SVG for a sweep (ValueError below 2 points)."""
    try:
        _write(Path(path), formats.sweep_to_svg(sweep.params, sweep.lambdas,
                                                sweep.converged, param_name))
    except OSError as exc:
        raise IOError(f"cannot write plot: {exc}") from exc


def _write_sweep_outputs(out: Path, sweep: xp.SweepResult, result,
                         param_name: str):
    """result.csv and sweep.svg from the sweep, verdict.json from result."""
    _write(out / "result.csv", formats.sweep_to_csv(
        sweep.params, sweep.lambdas, sweep.converged, sweep.outer_iters,
        sweep.residuals))
    _write(out / "verdict.json", formats.dumps_json(asdict(result)))
    if len(sweep.params) >= 2:
        emit_plot(sweep, out / "sweep.svg", param_name)


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
            OutOfBounds, NoFreeNodes, ZeroFunction, SupportMismatch) as exc:
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
        verdict = xp.fk_check(D, cfg.polarizer, cfg.solver)
        _write(out / "result.csv", formats.sweep_to_csv(
            [0.0, 1.0], [verdict.lambda_before, verdict.lambda_after],
            [verdict.converged_before, verdict.converged_after],
            verdict.outer_iters, verdict.residuals))
        _write(out / "verdict.json", formats.dumps_json(asdict(verdict)))
        return not (verdict.converged_before and verdict.converged_after)

    if kind == "translate-sweep":
        sweep = xp.translate_sweep(cfg.translate, cfg.solver, cfg.grid)
        _write_sweep_outputs(out, sweep, sweep, "shift")
        return not all(sweep.converged)

    if kind == "rotate-sweep":
        sweep = xp.rotate_sweep(cfg.rotate, cfg.solver, cfg.grid)
        _write_sweep_outputs(out, sweep, sweep, "cos(angle)")
        return not all(sweep.converged)

    if kind == "annulus-study":
        report = xp.annulus_study(cfg.annulus, cfg.solver, cfg.grid)
        _write_sweep_outputs(out, report.axis_sweep, report, "shift")
        return not all(report.axis_sweep.converged)

    if kind == "symmetry-check":
        D = cfg.domain.build(cfg.grid)
        report = xp.symmetry_check(D, cfg.symmetry, cfg.solver)
        res = report.result
        _write(out / "result.csv", formats.sweep_to_csv(
            [0.0], [res.lam], [res.converged], [res.outer_iters], [res.residual]))
        _write(out / "verdict.json", formats.dumps_json(report.to_dict()))
        _write(out / "eigenfunction.pgm", formats.function_to_pgm(res.u))
        return not res.converged

    raise ValidationError(f"unknown kind {kind!r}", field="kind")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    solver, grid = cfg.solver, cfg.grid
    if args.p is not None:
        with _invalid("--p"):
            solver = replace(solver, p=args.p)
    if args.grid_n is not None:
        n = args.grid_n
        # preserve the covered box: rescale the spacing with the cell count;
        # the inner replace rejects n < 2 before the division
        with _invalid("--grid-n"):
            if grid.nx != grid.ny:
                raise ValueError(f"needs a square grid, not {grid.nx} x "
                                 f"{grid.ny} cells")
            grid = replace(replace(grid, nx=n, ny=n),
                           spacing=grid.spacing * grid.nx / n)
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
    except UnicodeDecodeError as exc:  # a config error, like any other parse failure
        print(f"error: ParseError: config is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
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
