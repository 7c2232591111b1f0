"""Config parsing, round-trips, scenario runs, output formats, determinism."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from polarlap.errors import ParseError, SupportMismatch, ValidationError
from polarlap.cli import (
    emit_config,
    main,
    parse_config,
    run,
)
from polarlap import experiments as xp
from polarlap import formats
from polarlap.geometry import Grid, RasterSet
from polarlap.rearrange import GridFunction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL_SOLVE = """
{
  "kind": "solve",
  "grid": {"origin": [0.0, 0.0], "spacing": 0.125, "nx": 8, "ny": 8},
  "domain": {"outer": {"type": "rectangle", "lo": [0, 0], "hi": [1, 1],
                       "closed": true}}
}
"""

COARSE_TRANSLATE = """
{
  "kind": "translate-sweep",
  "grid": {"origin": [-0.625, -0.625], "spacing": 0.03125, "nx": 40, "ny": 40},
  "solver": {"p": 2.0},
  "translate": {
    "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
    "obstacle": {"type": "disk", "center": [0.0, 0.0], "radius": 0.15, "closed": true},
    "direction": [1.0, 0.0],
    "s_values": [0.0, 0.0625, 0.125]
  }
}
"""

COARSE_ROTATE_RADIAL = """
{
  "kind": "rotate-sweep",
  "grid": {"origin": [-1.0625, -1.0625], "spacing": 0.03125, "nx": 68, "ny": 68},
  "solver": {"p": 2.0},
  "rotate": {
    "variant": "neumann-inner",
    "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "fixed_hole": {"type": "disk", "center": [0.0, 0.0], "radius": 0.15625, "closed": true},
    "obstacle": {"type": "disk", "center": [0.5, 0.0], "radius": 0.21875, "closed": true},
    "anchor": [0.0, 0.0],
    "axis": [1.0, 0.0],
    "s_values": [0.0, 0.5, 1.0]
  }
}
"""

# every optional field that the configs above and the shipped ones leave out
ALL_FIELDS = """
{
  "kind": "translate-sweep",
  "grid": {"origin": [-1.0, -1.0], "spacing": 0.0625, "nx": 32, "ny": 32},
  "solver": {"p": 3.0, "max_outer": 300.0},
  "output": "out_all_fields",
  "domain": {
    "outer": {"type": "union", "members": [
      {"type": "rhombus", "center": [0.0, 0.0], "half_diagonal": 0.3, "closed": true},
      {"type": "ellipse", "center": [0.25, 0.0], "semi_axes": [0.5, 0.25], "angle": 0.5}]},
    "obstacles": [{"type": "disk", "center": [0.1875, 0.0], "radius": 0.0625}],
    "bc_outer": "neumann",
    "bc_obstacles": ["dirichlet"],
    "allow_pure_neumann": true
  },
  "translate": {
    "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 0.75},
    "obstacle": {"type": "disk", "center": [0.0, 0.0], "radius": 0.125, "closed": true},
    "direction": [0.0, 1.0],
    "s_values": [0.0, 0.125],
    "bc_obstacle": "neumann",
    "fixed_holes": [{"type": "rectangle", "lo": [-0.5, -0.125], "hi": [-0.375, 0.125],
                     "closed": true}]
  }
}
"""


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_minimal_solve():
    cfg = parse_config(MINIMAL_SOLVE)
    assert cfg.kind == "solve"
    assert cfg.grid.nx == 8
    assert cfg.solver.p == 2.0


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("{\n  \"kind\": oops\n}")
    assert err.value.line == 2


@pytest.mark.parametrize("nx", [
    "1" * 5000,                  # past Python's int-string digit limit
    "[" * 5000 + "]" * 5000,     # past the interpreter's nesting limit
], ids=["digits", "depth"])
def test_main_json_limit_one_line_parse_error(tmp_path, capsys, nx):
    # json.loads raises a bare ValueError or RecursionError at these limits
    path = tmp_path / "c.cfg"
    text = (CONFIG_DIR / "solve_square.cfg").read_text()
    assert '"nx": 64' in text
    path.write_text(text.replace('"nx": 64', f'"nx": {nx}'))
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: ParseError: ")
    assert not (tmp_path / "out").exists()


def test_missing_grid_spacing_named():
    bad = json.loads(MINIMAL_SOLVE)
    del bad["grid"]["spacing"]
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(bad))
    assert "spacing" in str(err.value)


def test_unknown_keys_rejected():
    bad = json.loads(MINIMAL_SOLVE)
    bad["grid"]["spacig"] = 0.1
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(bad))
    assert "spacig" in str(err.value)
    bad2 = json.loads(MINIMAL_SOLVE)
    bad2["domain"]["outer"]["radius"] = 1.0  # not a rectangle key... allowed set is global per shape
    bad2["domain"]["outer"]["typ"] = "disk"
    with pytest.raises(ValidationError):
        parse_config(json.dumps(bad2))


def test_kind_requires_section():
    bad = json.loads(MINIMAL_SOLVE)
    del bad["domain"]
    with pytest.raises(ValidationError):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_round_trip(name):
    text = (CONFIG_DIR / name).read_text()
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    cfg2 = parse_config(emitted)
    assert cfg2 == cfg
    assert emit_config(cfg2) == emitted


def test_round_trip_all_sections():
    for raw in (MINIMAL_SOLVE, COARSE_TRANSLATE, COARSE_ROTATE_RADIAL, ALL_FIELDS):
        cfg = parse_config(raw)
        assert parse_config(emit_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def test_run_translate_sweep(tmp_path):
    cfg = parse_config(COARSE_TRANSLATE)
    code = run(cfg, str(tmp_path))
    assert code == 0
    csv = (tmp_path / "result.csv").read_text().strip().splitlines()
    assert csv[0] == "param,lambda,converged,outer_iters,residual"
    lams = [float(line.split(",")[1]) for line in csv[1:]]
    assert all(b < a for a, b in zip(lams, lams[1:]))  # strictly decreasing
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["direction"] == "decreasing"
    assert (tmp_path / "sweep.svg").exists()


def test_run_rotate_radial_constant_verdict(tmp_path):
    cfg = parse_config(COARSE_ROTATE_RADIAL)
    code = run(cfg, str(tmp_path))
    assert code == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert verdict["direction"] == "constant"


def test_run_solve_outputs(tmp_path):
    cfg = parse_config(MINIMAL_SOLVE)
    code = run(cfg, str(tmp_path))
    assert code == 0
    for name in ("result.csv", "verdict.json", "eigenfunction.pgm",
                 "eigenfunction.csv", "run.log"):
        assert (tmp_path / name).exists()
    pgm = (tmp_path / "eigenfunction.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[2] == "255"


def test_run_inadmissible_polarizer_exit_2(tmp_path, capsys):
    text = """
    {
      "kind": "fk-check",
      "grid": {"origin": [-0.75, -0.75], "spacing": 0.03125, "nx": 48, "ny": 48},
      "domain": {
        "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 0.6},
        "obstacles": [{"type": "disk", "center": [0.0, 0.0], "radius": 0.15, "closed": true}],
        "bc_outer": "dirichlet", "bc_inner": "dirichlet"
      },
      "polarizer": {"normal": [1.0, 0.0], "offset": 0.375}
    }
    """
    cfg = parse_config(text)
    code = run(cfg, str(tmp_path))
    assert code == 2
    assert "NotAdmissible" in capsys.readouterr().err


def test_run_support_mismatch_exit_2(tmp_path, capsys, monkeypatch):
    msg = "polarized function is positive at a node outside the polarized support"

    def mismatch(*args):
        raise SupportMismatch(msg)

    monkeypatch.setattr(xp, "symmetry_check", mismatch)
    cfg = parse_config((CONFIG_DIR / "symmetry_check_annulus.cfg").read_text())
    assert run(cfg, str(tmp_path)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: SupportMismatch: {msg}"]


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


def test_verdict_keys_are_result_fields(tmp_path):
    out = tmp_path / "fk"
    assert main(["fk-check", "--config", str(CONFIG_DIR / "fk_check_ellipse.cfg"),
                 "--out", str(out), "--grid-n", "16"]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert set(verdict) == _field_names(xp.FkVerdict)

    out = tmp_path / "annulus"
    assert main(["annulus-study", "--config", str(CONFIG_DIR / "annulus_study.cfg"),
                 "--out", str(out), "--grid-n", "24"]) == 0
    report = json.loads((out / "verdict.json").read_text())
    assert set(report) == _field_names(xp.AnnulusStudyReport)
    assert report["mid_segment"] is None  # no admissible sample on this grid
    for key in ("axis_sweep", "left_segment", "right_segment", "offaxis_segment"):
        assert set(report[key]) == _field_names(xp.SweepResult)
    assert len(report["circle_checks"]) == 2
    for check in report["circle_checks"]:
        assert set(check) == _field_names(xp.CircleCheck)


def test_run_io_failure_exit_4(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    cfg = parse_config(MINIMAL_SOLVE)
    assert run(cfg, str(blocker)) == 4
    assert "error:" in capsys.readouterr().err


def test_main_kind_mismatch(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL_SOLVE)
    assert main(["fk-check", "--config", str(path)]) == 1
    assert "does not match" in capsys.readouterr().err


def _main_stderr(tmp_path, capsys, kind: str, raw: dict, *args: str):
    path = tmp_path / "c.cfg"
    path.write_text(json.dumps(raw))
    code = main([kind, "--config", str(path), "--out", str(tmp_path / "out"),
                 *args])
    return code, capsys.readouterr().err.splitlines()


def test_main_rotated_rectangle_rejected_at_parse(tmp_path, capsys):
    raw = json.loads(COARSE_ROTATE_RADIAL)
    raw["rotate"]["obstacle"] = {"type": "rectangle", "lo": [0.4, -0.1],
                                 "hi": [0.6, 0.1], "closed": True}
    raw["rotate"]["s_values"] = [0.5, 1.0]
    code, err = _main_stderr(tmp_path, capsys, "rotate-sweep", raw)
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: ValidationError: rotate.s_values: Rectangle")


def test_main_annulus_eccentricity_rejected_at_parse(tmp_path, capsys):
    raw = {"kind": "annulus-study",
           "grid": {"origin": [-1.0625, -1.0625], "spacing": 0.03125,
                    "nx": 68, "ny": 68},
           "annulus": {"outer_radius": 1.0, "hole_radius": 0.25,
                       "eccentricity": 0.9, "obstacle_radius": 0.1}}
    code, err = _main_stderr(tmp_path, capsys, "annulus-study", raw)
    assert code == 1
    assert err == ["error: ValidationError: annulus: need 0 < r < R, "
                   "0 <= alpha < R - r, rho > 0"]


MALFORMED_BASES = {
    "solve": MINIMAL_SOLVE,
    "translate": COARSE_TRANSLATE,
    "rotate": COARSE_ROTATE_RADIAL,
    "annulus": (CONFIG_DIR / "annulus_study.cfg").read_text(),
    "symmetry": (CONFIG_DIR / "symmetry_check_annulus.cfg").read_text(),
}


@pytest.mark.parametrize("base, path, value, field", [
    ("translate", "translate.direction", ["a", 0], "translate.direction"),
    ("translate", "translate.direction", [1.0, 1.0], "translate.direction"),
    ("translate", "translate.s_values", 5, "translate.s_values"),
    ("translate", "translate.s_values", ["x"], "translate.s_values"),
    ("translate", "translate.fixed_holes", 3, "translate.fixed_holes"),
    ("solve", "domain.obstacles",
     [{"type": "disk", "center": [None, 0], "radius": 0.1}],
     "domain.obstacles[0].center"),
    ("solve", "domain.obstacles", 7, "domain.obstacles"),
    ("solve", "domain.bc_obstacles", 7, "domain.bc_obstacles"),
    ("solve", "domain.outer", {"type": "union", "members": 5},
     "domain.outer.members"),
    ("solve", "domain.outer.closed", "false", "domain.outer.closed"),
    ("annulus", "annulus.step_cells", "x", "annulus.step_cells"),
    ("annulus", "annulus.step_cells", 0, "step_cells"),
    ("annulus", "annulus.step_cells", -1, "step_cells"),
    ("annulus", "annulus.circles", [[1, "a"]], "annulus.circles"),
    ("annulus", "annulus.line_offset", "a", "annulus.line_offset"),
    ("annulus", "annulus.outer_radius", "a", "annulus.outer_radius"),
    ("rotate", "rotate.anchor", ["q", 0], "rotate.anchor"),
    ("rotate", "rotate.axis", [0.0, 2.0], "rotate.axis"),
    ("rotate", "rotate.variant", "bogus", "rotate.variant"),
    ("symmetry", "symmetry.axis", ["q", 0], "symmetry.axis"),
    ("symmetry", "symmetry.axis", [5, 0], "symmetry.axis"),
    ("symmetry", "symmetry.axis", [0, 0], "symmetry.axis"),
    ("translate", "solver.max_inner", 0, "solver"),
    ("translate", "solver.max_outer", -3, "solver"),
    ("solve", "--p", "0.5", "--p"),
    ("solve", "--grid-n", "0", "--grid-n"),
    ("solve", "--grid-n", "1", "--grid-n"),
    ("solve", "--grid-n", "-3", "--grid-n"),
])
def test_main_malformed_value_one_line_error(tmp_path, capsys, base, path,
                                             value, field):
    raw = json.loads(MALFORMED_BASES[base])
    args = []
    if path.startswith("--"):
        args = [path, value]
    else:
        *parents, key = path.split(".")
        node = raw
        for name in parents:
            node = node[name]
        node[key] = value
    code, err = _main_stderr(tmp_path, capsys, raw["kind"], raw, *args)
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: ValidationError: ")
    assert field in err[0]
    assert not (tmp_path / "out").exists()  # rejected before any run


def test_main_no_free_nodes_exit_2(tmp_path, capsys):
    raw = json.loads(MINIMAL_SOLVE)
    raw["grid"] = {"origin": [0.0, 0.0], "spacing": 0.25, "nx": 4, "ny": 4}
    raw["domain"]["outer"] = {"type": "rectangle", "lo": [0.25, 0.25],
                              "hi": [0.5, 0.5]}  # one open cell, no free node
    code, err = _main_stderr(tmp_path, capsys, "solve", raw)
    assert code == 2
    assert err == ["error: NoFreeNodes: mesh has no free nodes"]


def test_main_solve_with_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(MINIMAL_SOLVE)
    out = tmp_path / "out"
    code = main(["solve", "--config", str(path), "--out", str(out),
                 "--grid-n", "16"])
    assert code == 0
    rows = (out / "eigenfunction.csv").read_text().splitlines()
    assert len(rows) == 1 + 17 * 17  # overridden grid, same unit box


def test_determinism_byte_identical(tmp_path):
    cfg = parse_config(COARSE_TRANSLATE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(cfg, str(out1)) == 0
    assert run(cfg, str(out2)) == 0
    for name in ("result.csv", "verdict.json", "sweep.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


def test_raster_pgm_format():
    g = Grid((0.0, 0.0), 0.5, 2, 2)
    A = RasterSet(g, np.array([[True, False], [False, True]]))
    pgm = formats.raster_to_pgm(A)
    lines = pgm.splitlines()
    assert lines[:3] == ["P2", "2 2", "1"]
    assert lines[3] == "0 1" and lines[4] == "1 0"  # top row first


def test_sweep_svg_two_points():
    svg = formats.sweep_to_svg([0.0, 1.0], [2.0, 3.0], [True, False], "shift")
    assert svg.count("<polyline") == 1
    assert 'fill="none" stroke="black"/>' in svg  # hollow unconverged marker
    assert "shift" in svg and "lambda" in svg


def test_sweep_svg_needs_two_points():
    with pytest.raises(ValueError):
        formats.sweep_to_svg([0.0], [1.0], [True], "s")


def test_emit_plot(tmp_path):
    from polarlap.cli import emit_plot
    from polarlap.experiments import SweepResult
    sweep = SweepResult((0.0, 0.5, 1.0), (3.0, 2.5, 2.0), (True, True, False),
                        (4, 5, 6), (0.0, 0.0, 0.0), "decreasing", 0.1, ())
    target = tmp_path / "sweep.svg"
    emit_plot(sweep, target, "shift")
    text = target.read_text()
    assert text.count("<polyline") == 1 and "shift" in text
    short = SweepResult((0.0,), (3.0,), (True,), (4,), (0.0,), "constant",
                        0.0, ())
    with pytest.raises(ValueError):
        emit_plot(short, tmp_path / "x.svg")


def test_svg_shows_interior_maximum():
    # a unimodal sweep renders with its peak strictly inside the plot
    params = [0.1 * k for k in range(9)]
    lambdas = [10 - (s - 0.42) ** 2 * 30 for s in params]
    svg = formats.sweep_to_svg(params, lambdas, [True] * 9, "shift")
    pts = [tuple(map(float, tok.split(",")))
           for tok in svg.split('points="')[1].split('"')[0].split()]
    ys = [y for _, y in pts]
    peak = ys.index(min(ys))  # svg y grows downward
    assert 0 < peak < len(ys) - 1


def test_function_csv_header():
    g = Grid((0.0, 0.0), 0.5, 2, 2)
    from polarlap.geometry import full_raster
    u = GridFunction(g, np.zeros((3, 3)), full_raster(g))
    rows = formats.function_to_csv(u).splitlines()
    assert rows[0] == "node,x,y,value"
    assert len(rows) == 10
