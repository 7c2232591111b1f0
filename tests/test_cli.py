"""Config parsing, round-trips, scenario runs, output formats, determinism."""

import json
import time
from dataclasses import fields, replace
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
from polarlap import cli
from polarlap import experiments as xp
from polarlap import formats
from polarlap.geometry import Grid, RasterSet, Rectangle
from polarlap.rearrange import GridFunction

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH_CONFIG_DIR = CONFIG_DIR.parent / "perfbench" / "configs"

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


def test_main_non_utf8_config_one_line_parse_error(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8; read_text raised an uncaught
    # UnicodeDecodeError before parsing
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\xff\xfe" + (CONFIG_DIR / "solve_square.cfg").read_bytes())
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1
    assert err[0].startswith("error: ParseError: config is not UTF-8 text: ")
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


# the benchmark's configs are read too, so one that sets a key the parser
# rejects fails here rather than in a benchmark run
@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.cfg"))
    + sorted(PERFBENCH_CONFIG_DIR.glob("*.cfg")),
    ids=lambda p: p.name if p.parent == CONFIG_DIR else f"perfbench/{p.name}")
def test_shipped_configs_round_trip(path):
    text = path.read_text()
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


@pytest.mark.parametrize("p", ["1.6", "1.75"])
def test_translate_sweep_below_p2_at_spacing_1_32(tmp_path, p):
    # the shipped translate geometry at spacing 1/32, inside the paper's
    # strict range p > 1.5.  Each sweep takes under 1 s on a 2-core host;
    # an inverse-iteration inner solve without a rounding-floor exit ran
    # the p = 1.75 sweep for more than 150 s.
    t0 = time.perf_counter()
    code = main(["translate-sweep", "--config",
                 str(CONFIG_DIR / "translate_sweep_disk.cfg"),
                 "--out", str(tmp_path), "--p", p, "--grid-n", "66"])
    seconds = time.perf_counter() - t0
    assert code == 0
    verdict = json.loads((tmp_path / "verdict.json").read_text())
    assert all(verdict["converged"])
    assert verdict["direction"] == "decreasing"
    assert all(r <= 1e-5 * lam for r, lam in zip(verdict["residuals"],
                                                 verdict["lambdas"]))
    assert seconds < 60.0


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
    # result.csv holds each solve's own step count and residual
    rows = [row.split(",") for row in
            (out / "result.csv").read_text().splitlines()[1:]]
    for row, iters, res in zip(rows, verdict["outer_iters"],
                               verdict["residuals"]):
        assert int(row[3]) == iters > 0
        assert float(row[4]) == res > 0.0

    out = tmp_path / "symmetry"
    assert main(["symmetry-check", "--config",
                 str(CONFIG_DIR / "symmetry_check_annulus.cfg"),
                 "--out", str(out), "--grid-n", "66"]) == 0
    report = json.loads((out / "verdict.json").read_text())
    assert set(report) == {"lambda", "iterations", "residual", "converged",
                           "defects", "max_defect"}
    row = (out / "result.csv").read_text().splitlines()[1].split(",")
    assert int(row[3]) == report["iterations"] > 0
    assert float(row[4]) == report["residual"] > 0.0

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


def test_main_nearly_unit_translate_direction_no_traceback(tmp_path, capsys):
    # within check_unit's 1e-9 but not Polarizer's 1e-12
    raw = json.loads(COARSE_TRANSLATE)
    raw["translate"]["direction"] = [1.0000000005, 0.0]
    raw["translate"]["s_values"] = [0.0, 0.03125]
    code, err = _main_stderr(tmp_path, capsys, "translate-sweep", raw)
    assert code in (0, 2, 3)
    assert len(err) <= 1
    assert not any("Traceback" in line for line in err)


def test_main_nearly_unit_translate_direction_shifts_by_the_unit(tmp_path):
    # the obstacle moves along the compatible direction that the spec's
    # matches, so the shifts stay whole cells and the outputs are those of
    # the unit direction
    raw = json.loads((CONFIG_DIR / "translate_sweep_disk.cfg").read_text())
    outputs = []
    for direction in ([1.0000000005, 0.0], [1.0, 0.0]):
        raw["translate"]["direction"] = direction
        path = tmp_path / "c.cfg"
        path.write_text(json.dumps(raw))
        out = tmp_path / f"out{len(outputs)}"
        assert main(["translate-sweep", "--config", str(path), "--grid-n", "33",
                     "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("result.csv", "verdict.json")])
    assert outputs[0] == outputs[1]


def test_annulus_study_notes_dropped_circle_and_offaxis_placements(tmp_path):
    # a circle and an off-axis line whose obstacles all leave the annulus at
    # 34 cells: each is noted, as the axis placements are
    raw = json.loads((CONFIG_DIR / "annulus_study.cfg").read_text())
    raw["annulus"]["circles"] = [[0.85, 0.5]]
    raw["annulus"]["line_offset"] = 0.875
    path = tmp_path / "c.cfg"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["annulus-study", "--config", str(path), "--grid-n", "34",
                 "--out", str(out)]) == 0
    notes = json.loads((out / "verdict.json").read_text())["notes"]
    assert "circle (0.85, 0.5): 4 placements dropped as infeasible" in notes
    assert "off-axis line: 5 placements dropped as infeasible" in notes


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
    ("translate", "solver.inner_tol", 1e-9,
     "unknown key(s) ['inner_tol'] in solver"),
    ("translate", "solver.smoothing_eps", 1e-10,
     "unknown key(s) ['smoothing_eps'] in solver"),
    ("solve", "domain.bc_obstacles", ["dirichlet", "neumann"],
     "domain.bc_obstacles: expected a list of 0"),
    ("translate", "translate.direction", [0.6, 0.8], "translate.direction"),
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


@pytest.mark.parametrize("base, section, changes", [
    ("translate", "translate", {"direction": (1.0, 1.0)}),
    ("solve", "domain", {"bc_obstacles": ("dirichlet", "neumann")}),
    ("annulus", "annulus", {"step_cells": 0}),
    ("annulus", "annulus", {"step_cells": -1}),
    ("annulus", "annulus", {"eccentricity": 0.9}),
    ("rotate", "rotate", {"axis": (0.0, 2.0)}),
    ("rotate", "rotate", {"variant": "bogus"}),
    ("rotate", "rotate", {"s_values": (1.5,)}),
    ("rotate", "rotate", {"obstacle": Rectangle((0.4, -0.1), (0.6, 0.1),
                                                closed=True)}),
    ("symmetry", "symmetry", {"axis": (5.0, 0.0)}),
    ("symmetry", "symmetry", {"axis": (0.0, 0.0)}),
    ("translate", "translate", {"direction": (0.6, 0.8)}),
])
def test_specs_reject_what_the_cli_rejects(base, section, changes):
    # a library caller building the spec gets the ValueError that the CLI
    # reports as a config error
    spec = getattr(parse_config(MALFORMED_BASES[base]), section)
    with pytest.raises(ValueError) as info:
        replace(spec, **changes)
    assert not isinstance(info.value, ValidationError)


def test_one_solve_per_result_row_through_module_globals(tmp_path, monkeypatch):
    # perfbench times every solve by wrapping the module globals cli.solve
    # and experiments.solve; a solve reached some other way would go
    # untimed, and a missing global would stop its runs
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, xp):
        monkeypatch.setattr(module, "solve", counted(module.solve))
    for kind, text in (("solve", MINIMAL_SOLVE),
                       ("translate-sweep", COARSE_TRANSLATE)):
        calls.clear()
        path = tmp_path / f"{kind}.cfg"
        path.write_text(text)
        out = tmp_path / kind
        assert main([kind, "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "result.csv").read_text().splitlines()[1:]
        assert len(calls) == len(rows) > 0


def test_main_no_free_nodes_exit_2(tmp_path, capsys):
    raw = json.loads(MINIMAL_SOLVE)
    raw["grid"] = {"origin": [0.0, 0.0], "spacing": 0.25, "nx": 4, "ny": 4}
    raw["domain"]["outer"] = {"type": "rectangle", "lo": [0.25, 0.25],
                              "hi": [0.5, 0.5]}  # one open cell, no free node
    code, err = _main_stderr(tmp_path, capsys, "solve", raw)
    assert code == 2
    assert err == ["error: NoFreeNodes: mesh has no free nodes"]


@pytest.mark.parametrize("p, code, line", [
    ("inf", 1, "error: ValidationError: --p: p must be finite"),
    ("1e308", 3, "warning: unconverged solve present in results"),
])
def test_main_extreme_p_ends_without_traceback(tmp_path, capsys, p, code, line):
    # an infinite p is rejected with the config errors; at a finite p whose
    # energies overflow every continuation stage fails, and the solve ends
    # unconverged after max_outer steps, its infinite lambda written as a
    # strict-JSON null
    code_run = main(["solve", "--config", str(CONFIG_DIR / "solve_square.cfg"),
                     "--p", p, "--grid-n", "8", "--out", str(tmp_path / "out")])
    assert code_run == code
    assert capsys.readouterr().err.splitlines() == [line]
    if code == 3:
        def reject(name):
            raise ValueError(f"verdict.json holds {name}")

        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text(),
                             parse_constant=reject)
        assert verdict["lambda"] is None


# a coarse cell count per shipped config: the translate sweep's 1/16 shifts
# must be whole cells, and the rotation and symmetry anchors at x = -0.25
# grid nodes (n a multiple of 66)
SMOKE_GRID_N = {"annulus_study.cfg": 16, "fk_check_ellipse.cfg": 24,
                "rotate_sweep_annulus.cfg": 66, "solve_square.cfg": 24,
                "symmetry_check_annulus.cfg": 66, "translate_sweep_disk.cfg": 33}


@pytest.mark.parametrize("p", ["1.5", "50"])
@pytest.mark.parametrize("name", sorted(f.name for f in CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_end_without_traceback(tmp_path, capsys, name, p):
    # every kind ends on an exit code and at most one stderr line, also at a
    # p whose weights underflow the Newton Hessian's diagonal (fk-check at
    # p = 50 on 24 cells, which raised from the two-grid's sparse LU)
    kind = json.loads((CONFIG_DIR / name).read_text())["kind"]
    code = main([kind, "--config", str(CONFIG_DIR / name), "--p", p,
                 "--grid-n", str(SMOKE_GRID_N[name]),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err


def test_fk_check_overflowing_p_is_unresolved(tmp_path):
    # at p = 400 on 32 cells the energies overflow and both solves end
    # unconverged; that once wrote "violated", a false counterexample
    out = tmp_path / "out"
    assert main(["fk-check", "--config", str(CONFIG_DIR / "fk_check_ellipse.cfg"),
                 "--p", "400", "--grid-n", "32", "--out", str(out)]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["relation"] == "unresolved"
    assert not (verdict["converged_before"] and verdict["converged_after"])


def test_grid_n_rejects_a_non_square_grid(tmp_path, capsys):
    # n x n cells over the same box exist only when the grid is square
    raw = json.loads(MINIMAL_SOLVE)
    raw["grid"].update(nx=8, ny=4)
    code, err = _main_stderr(tmp_path, capsys, "solve", raw, "--grid-n", "16")
    assert code == 1
    assert err == ["error: ValidationError: --grid-n: needs a square grid, "
                   "not 8 x 4 cells"]
    assert not (tmp_path / "out").exists()


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


def test_sweep_svg_draws_finite_points_only():
    # a non-finite lambda is left out of the plot and of its axes, so the
    # rest is drawn as if it were not there
    inf = float("inf")
    svg = formats.sweep_to_svg([0.0, 0.5, 1.0, 1.5], [2.0, inf, 3.0, -inf],
                               [True, False, True, False], "shift")
    assert "nan" not in svg and "inf" not in svg
    assert svg == formats.sweep_to_svg([0.0, 1.0], [2.0, 3.0], [True, True],
                                       "shift")
    empty = formats.sweep_to_svg([0.0, 1.0], [inf, float("nan")],
                                 [False, False], "shift")
    assert 'points=""' in empty and "<circle" not in empty


def test_sweep_svg_needs_two_points():
    with pytest.raises(ValueError):
        formats.sweep_to_svg([0.0], [1.0], [True], "s")


def test_emit_plot(tmp_path):
    from polarlap.cli import emit_plot
    from polarlap.experiments import SweepResult
    sweep = SweepResult((0.0, 0.5, 1.0), (3.0, 2.5, 2.0), (True, True, False),
                        (4, 5, 6), (0.0, 0.0, 0.0), "decreasing", 0.1, (),
                        True)
    target = tmp_path / "sweep.svg"
    emit_plot(sweep, target, "shift")
    text = target.read_text()
    assert text.count("<polyline") == 1 and "shift" in text
    short = SweepResult((0.0,), (3.0,), (True,), (4,), (0.0,), "constant",
                        0.0, (), True)
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


def test_function_emitters_match_per_node_loop(rng):
    # the emitters against the per-node loops they replaced, on a
    # non-dyadic spacing with signed zeros among the values
    from polarlap.geometry import full_raster
    g = Grid((-1.03125, 0.1), 2.0625 / 7, 7, 5)
    v = rng.standard_normal(g.node_shape) * \
        10.0 ** rng.integers(-20, 20, g.node_shape)
    v[0, 0], v[1, 2] = -0.0, 0.0
    u = GridFunction(g, v, full_raster(g))
    ox, oy = g.origin
    rows = ["node,x,y,value"]
    for iy in range(6):
        for ix in range(8):
            rows.append(f"{iy * 8 + ix},{format(ox + ix * g.spacing, '.17g')},"
                        f"{format(oy + iy * g.spacing, '.17g')},"
                        f"{format(float(v[iy, ix]), '.17g')}")
    assert formats.function_to_csv(u) == "\n".join(rows) + "\n"
    q = np.rint(255.0 * (v - v.min()) / (v.max() - v.min())).astype(int)
    lines = ["P2", "8 6", "255"]
    lines += [" ".join(str(int(val)) for val in q[iy]) for iy in range(5, -1, -1)]
    assert formats.function_to_pgm(u) == "\n".join(lines) + "\n"
