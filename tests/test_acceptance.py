"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  The heavy scenarios run at the pinned
spacing 1/64.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from polarlap.errors import NotAdmissible, OutOfBounds
from polarlap.geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Ellipse,
    Grid,
    Polarizer,
    PuncturedDomain,
    RasterSet,
    Rectangle,
    UnionShape,
    default_polarizer_pool,
    dual_polarize_set,
    full_raster,
    is_dual_polarization_invariant,
    is_polarization_invariant,
    polarize_punctured,
    polarize_set,
    rasterize,
    reflect_set,
)
from polarlap.rearrange import (
    GridFunction,
    check_nonexpansive,
    node_support,
    nodal_p_norm,
    polarize_function,
    support_set,
)
from polarlap.discretize import (
    energy_p,
    grad_energy_p,
    grad_mass_p,
    mass_p,
    triangulate,
)
from polarlap.eigensolve import SolverConfig, solve
from polarlap.experiments import (
    AnnulusSpec,
    RotateSpec,
    SymmetrySpec,
    TranslateSpec,
    annulus_study,
    fk_check,
    rotate_sweep,
    symmetry_check,
    translate_sweep,
)
from polarlap.cli import parse_config, run


def _report(num: int, name: str, ok: bool, detail: str, t0: float):
    line = (f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {time.time() - t0:.1f} s)")
    print(line)
    assert ok, line


def _grid64(half_cells: int = 66) -> Grid:
    # spacing exactly 1/64; window [-half, half]^2
    half = half_cells / 64.0
    return Grid((-half, -half), 1.0 / 64.0, 2 * half_cells, 2 * half_cells)


# ---------------------------------------------------------------------------
# 1. exact set algebra
# ---------------------------------------------------------------------------


def test_criterion_01_exact_set_algebra():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    checked = 0
    n_rasters = 520
    for k in range(n_rasters):
        n = int(rng.integers(8, 65))
        g = Grid((0.0, 0.0), 1.0 / n, n, n)
        A = RasterSet(g, rng.random((n, n)) < rng.uniform(0.2, 0.8))
        C = RasterSet(g, A.mask | (rng.random((n, n)) < 0.3))
        for H in default_polarizer_pool(g):
            P = polarize_set(H, A)
            Pd = dual_polarize_set(H, A)
            sA = reflect_set(H, A)
            assert P.count() == A.count() == Pd.count()
            assert polarize_set(H, A).is_subset(polarize_set(H, C))
            PC = polarize_set(H, C)
            assert polarize_set(H, A.intersect(C)).is_subset(P.intersect(PC))
            assert P.union(PC).is_subset(polarize_set(H, A.union(C)))
            assert polarize_set(H, sA).same_cells(P)
            assert reflect_set(H, P).same_cells(Pd)
            assert reflect_set(H, Pd).same_cells(P)
            assert polarize_set(H, A.complement()).same_cells(Pd.complement())
            assert polarize_set(H, P).same_cells(P)
            assert dual_polarize_set(H, Pd).same_cells(Pd)
            assert is_polarization_invariant(H, A) == P.same_cells(A)
            assert is_dual_polarization_invariant(H, A) == Pd.same_cells(A)
            assert P.same_cells(Pd) == sA.same_cells(A)
            checked += 1

    # punctured identity on admissible polarizer/domain pairs
    punctured_checked = 0
    for k in range(60):
        n = int(rng.integers(32, 64))
        g = Grid((-0.5, -0.5), 1.0 / n, n, n)
        outer = rasterize(Disk((0.0, 0.0), 0.45), g)
        cx = float(rng.uniform(-0.1, 0.1))
        cy = float(rng.uniform(-0.1, 0.1))
        try:
            ob = rasterize(Disk((cx, cy), 0.08, closed=True), g)
            D = PuncturedDomain(outer, (ob,))
        except Exception:
            continue
        for H in default_polarizer_pool(g):
            try:
                D2 = polarize_punctured(H, D)
            except (NotAdmissible, OutOfBounds):
                continue
            lhs = polarize_set(H, D.free())
            rhs = polarize_set(H, D.outer).minus(
                dual_polarize_set(H, D.obstacle_union()))
            assert D2.free().same_cells(lhs)
            assert D2.free().same_cells(rhs)
            assert D2.free().count() == D.free().count()
            punctured_checked += 1
    _report(1, "exact set algebra", True,
            f"{n_rasters} rasters x pool, {checked} identity blocks, "
            f"{punctured_checked} punctured checks", t0)


# ---------------------------------------------------------------------------
# 2. function rearrangement
# ---------------------------------------------------------------------------


def test_criterion_02_function_rearrangement():
    t0 = time.time()
    rng = np.random.default_rng(999)

    # exact p-norm preservation (sigma-symmetric active region)
    worst = 0.0
    for k in range(40):
        n = int(rng.integers(8, 33))
        g = Grid((0.0, 0.0), 1.0 / n, n, n)
        v = rng.random(g.node_shape)
        u = GridFunction(g, v, full_raster(g))
        for H in default_polarizer_pool(g):
            pu = polarize_function(H, u)
            for p in (1.6, 2.0, 3.0):
                worst = max(worst, abs(nodal_p_norm(pu, p) - nodal_p_norm(u, p)))
    norm_ok = worst <= 1e-12

    # non-expansivity on 200 random nonnegative pairs
    g = Grid((0.0, 0.0), 1.0 / 16, 16, 16)
    pool = default_polarizer_pool(g)
    ok_count = 0
    for k in range(200):
        du = float(rng.uniform(0.2, 1.0))
        dv = float(rng.uniform(0.2, 1.0))
        u = GridFunction(g, np.where(rng.random(g.node_shape) < du,
                                     rng.random(g.node_shape), 0.0),
                         full_raster(g))
        v = GridFunction(g, np.where(rng.random(g.node_shape) < dv,
                                     rng.random(g.node_shape), 0.0),
                         full_raster(g))
        p = float(rng.uniform(1.0, 4.0))
        H = pool[k % len(pool)]
        lhs, rhs, ok = check_nonexpansive(u, v, H, p)
        ok_count += bool(ok)
    nonexp_ok = ok_count == 200

    # support identity, exact discrete form: the nodal positivity set of the
    # polarized function equals the polarized positivity set, for every
    # threshold; the carried support mask transforms by set polarization;
    # the vertex-halo support_set satisfies the one-sided inclusion
    support_ok = True
    for k in range(200):
        v = np.where(rng.random(g.node_shape) < rng.uniform(0.2, 0.9),
                     rng.random(g.node_shape), 0.0)
        u = GridFunction(g, v, full_raster(g))
        H = pool[k % len(pool)]
        pu = polarize_function(H, u)
        for thr in (0.0, 0.3):
            ind = GridFunction(g, (v > thr).astype(float), full_raster(g))
            lhs = node_support(pu, thr)
            rhs = polarize_function(H, ind).values > 0.5
            support_ok &= bool(np.array_equal(lhs, rhs))
        support_ok &= pu.support_mask.same_cells(polarize_set(H, u.support_mask))
        support_ok &= support_set(pu).is_subset(polarize_set(H, support_set(u)))

    _report(2, "function rearrangement", norm_ok and nonexp_ok and support_ok,
            f"max norm drift {worst:.1e}, nonexpansive {ok_count}/200, "
            f"support identity exact at node level", t0)


# ---------------------------------------------------------------------------
# 3. solver oracles at spacing 1/64
# ---------------------------------------------------------------------------


def test_criterion_03_solver_oracles():
    t0 = time.time()
    # unit square, all Dirichlet
    t1 = time.time()
    g = Grid((0.0, 0.0), 1.0 / 64, 64, 64)
    sq = rasterize(Rectangle((0, 0), (1, 1), closed=True), g)
    res_sq = solve(triangulate(PuncturedDomain(sq, ())))
    t_sq = time.time() - t1
    exact_sq = 2.0 * math.pi ** 2
    err_sq = abs(res_sq.lam - exact_sq) / exact_sq

    # unit disk, Dirichlet
    t1 = time.time()
    gd = _grid64()
    disk = rasterize(Disk((0.0, 0.0), 1.0), gd)
    res_dk = solve(triangulate(PuncturedDomain(disk, ())))
    t_dk = time.time() - t1
    exact_dk = jn_zeros(0, 1)[0] ** 2
    err_dk = abs(res_dk.lam - exact_dk) / exact_dk

    # pure-Neumann square
    t1 = time.time()
    res_nm = solve(triangulate(PuncturedDomain(
        sq, (), bc_outer=NEUMANN, allow_pure_neumann=True)))
    t_nm = time.time() - t1

    ok = (err_sq < 0.01 and err_dk < 0.02 and res_nm.lam <= 1e-8
          and max(t_sq, t_dk, t_nm) < 10.0)
    _report(3, "solver oracles", ok,
            f"square {res_sq.lam:.4f} vs {exact_sq:.4f} ({err_sq:.2%}), "
            f"disk {res_dk.lam:.4f} vs {exact_dk:.4f} ({err_dk:.2%}), "
            f"neumann {res_nm.lam:.1e}; solves "
            f"{t_sq:.1f}/{t_dk:.1f}/{t_nm:.1f} s", t0)


# ---------------------------------------------------------------------------
# 4. gradient checks
# ---------------------------------------------------------------------------


def test_criterion_04_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(4242)
    g = Grid((-0.5, -0.5), 1.0 / 14, 14, 14)
    outer = rasterize(Disk((0.0, 0.0), 0.45), g)
    hole = rasterize(Disk((0.0, 0.0), 0.12, closed=True), g)
    mesh = triangulate(PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET,
                                       bc_inner=NEUMANN))
    # mismatch is measured relative to the gradient sup-norm: for components
    # much smaller than that, the central difference itself is limited by
    # roundoff cancellation (eps * E / h), not by the analytic gradient
    h = 1e-6
    worst = 0.0
    for p in (1.6, 2.0, 2.5, 3.0):
        for trial in range(20):
            flat = np.zeros(mesh.n_nodes)
            flat[mesh.free_nodes] = 0.2 + rng.random(mesh.n_free)
            u = mesh.function_from_flat(flat)
            ge = grad_energy_p(mesh, u, p)
            gm = grad_mass_p(mesh, u, p)
            scale_e = np.abs(ge).max()
            scale_m = np.abs(gm).max()
            for k in rng.choice(mesh.n_free, size=6, replace=False):
                nid = mesh.free_nodes[k]
                fp = flat.copy(); fp[nid] += h
                fm = flat.copy(); fm[nid] -= h
                up, um = mesh.function_from_flat(fp), mesh.function_from_flat(fm)
                fd_e = (energy_p(mesh, up, p) - energy_p(mesh, um, p)) / (2 * h)
                fd_m = (mass_p(mesh, up, p) - mass_p(mesh, um, p)) / (2 * h)
                worst = max(worst,
                            abs(ge[k] - fd_e) / max(abs(fd_e), scale_e),
                            abs(gm[k] - fd_m) / max(abs(fd_m), scale_m))
    ok = worst < 1e-6
    _report(4, "gradient checks", ok, f"worst relative FD mismatch {worst:.1e}",
            t0)


# ---------------------------------------------------------------------------
# 5. polarization inequality on scripted pairs
# ---------------------------------------------------------------------------


def _fk_pairs():
    g48 = Grid((-0.75, -0.75), 1.0 / 32, 48, 48)
    g56 = Grid((-0.875, -0.875), 1.0 / 32, 56, 56)
    hx = Polarizer((1.0, 0.0), 0.0)
    hy = Polarizer((0.0, 1.0), 0.0)
    sq2 = math.sqrt(2.0)
    h_main = Polarizer((-1.0 / sq2, 1.0 / sq2), 0.0)   # H = {y < x}
    h_anti = Polarizer((1.0 / sq2, 1.0 / sq2), 0.0)    # H = {x + y < 0}

    strict_shapes = [
        Ellipse((0.03125, 0.0625), (0.5, 0.22), 0.9),
        Ellipse((-0.0625, 0.03125), (0.45, 0.25), 0.6),
        Ellipse((0.0, 0.09375), (0.55, 0.2), 1.2),
        Ellipse((0.0625, -0.03125), (0.52, 0.24), 2.1),
        UnionShape((Disk((-0.15625, -0.0625), 0.28),
                    Disk((0.1875, 0.09375), 0.33))),
    ]
    pairs = []
    for shape in strict_shapes:
        for p in (2.0, 3.0):
            D = PuncturedDomain(rasterize(shape, g48), ())
            pairs.append((D, hx, p, "strict"))
    for p in (2.0, 3.0):
        D = PuncturedDomain(rasterize(Disk((0.0, 0.0), 0.5), g48), ())
        pairs.append((D, hx, p, "invariant"))
    pairs.append((PuncturedDomain(rasterize(Disk((0.25, 0.1), 0.2), g48), ()),
                  hx, 2.0, "reflected"))
    pairs.append((PuncturedDomain(rasterize(Disk((-0.1, 0.28), 0.18), g48), ()),
                  hy, 2.0, "reflected"))
    pairs.append((PuncturedDomain(rasterize(Disk((-0.125, 0.3125), 0.2), g48), ()),
                  h_main, 3.0, "reflected"))
    pairs.append((PuncturedDomain(rasterize(Disk((0.1875, 0.15625), 0.2), g48), ()),
                  h_anti, 3.0, "reflected"))
    for p in (2.0, 3.0):
        outer = rasterize(Ellipse((0.03125, 0.0), (0.6, 0.35), 0.7), g56)
        holeN = rasterize(Disk((0.0, 0.0), 0.09375, closed=True), g56)
        pairs.append((PuncturedDomain(outer, (holeN,), bc_outer=DIRICHLET,
                                      bc_inner=NEUMANN), hx, p, None))
    for p in (2.0, 3.0):
        outer = rasterize(Disk((0.0, 0.0), 0.6), g56)
        obD = rasterize(Disk((-0.15625, 0.125), 0.1, closed=True), g56)
        pairs.append((PuncturedDomain(outer, (obD,), bc_outer=NEUMANN,
                                      bc_inner=DIRICHLET), hx, p, None))
    return pairs


def test_criterion_05_fk_inequality():
    t0 = time.time()
    pairs = _fk_pairs()
    assert len(pairs) == 20
    leq_all = True
    strict_hits = 0
    case_mismatch = []
    for i, (D, H, p, expected_case) in enumerate(pairs):
        v = fk_check(D, H, SolverConfig(p=p))
        if v.relation != "leq":
            leq_all = False
        if expected_case is not None and v.strict_case != expected_case:
            case_mismatch.append((i, expected_case, v.strict_case))
        if v.strict_case == "strict" and v.gap > 1e-3 * v.lambda_before:
            strict_hits += 1
    ok = leq_all and strict_hits >= 5 and not case_mismatch
    _report(5, "polarization inequality", ok,
            f"20 pairs leq={leq_all}, strict with gap > 1e-3: {strict_hits}, "
            f"case mismatches: {case_mismatch}", t0)


# ---------------------------------------------------------------------------
# 6. translation monotonicity at spacing 1/64
# ---------------------------------------------------------------------------


def test_criterion_06_translation_monotonicity():
    t0 = time.time()
    g = _grid64()
    d = g.spacing
    svals = (0.0, 4 * d, 8 * d, 12 * d, 16 * d)
    details = []
    ok = True
    for p in (2.0, 3.0):
        sw = translate_sweep(TranslateSpec(Disk((0.0, 0.0), 1.0),
                                           Disk((0.0, 0.0), 0.3, closed=True),
                                           (1.0, 0.0), svals),
                             SolverConfig(p=p), g)
        drops = [(a - b) / a for a, b in zip(sw.lambdas, sw.lambdas[1:])]
        ok &= sw.direction == "decreasing" and len(sw.params) == 5
        ok &= all(dr > 1e-4 for dr in drops)
        details.append(f"p={p:g}: min drop {min(drops):.2e}")
    _report(6, "translation monotonicity", ok, "; ".join(details), t0)


# ---------------------------------------------------------------------------
# 7. rotation monotonicity at spacing 1/64
# ---------------------------------------------------------------------------


def test_criterion_07_rotation_monotonicity():
    t0 = time.time()
    g = _grid64()
    eta = (1.0, 0.0)
    svals = (math.cos(2 * math.pi / 3), 0.0, math.cos(math.pi / 3),
             math.cos(math.pi / 6), 1.0)
    a = (-0.25, 0.0)
    details = []
    ok = True
    for p in (2.0, 3.0):
        sw = rotate_sweep(RotateSpec("neumann-inner", Disk((0.0, 0.0), 1.0),
                                     Disk((0.25, 0.0), 0.15625, closed=True),
                                     a, eta, svals,
                                     fixed_hole=Disk(a, 0.15625, closed=True)),
                          SolverConfig(p=p), g)
        diffs = [(b - a_) / a_ for a_, b in zip(sw.lambdas, sw.lambdas[1:])]
        ok &= sw.direction == "increasing" and len(sw.params) == 5
        ok &= all(df > 1e-4 for df in diffs)
        details.append(f"p={p:g}: min rise {min(diffs):.2e}")
    a0 = (0.0, 0.0)
    for p in (2.0, 3.0):
        sw = rotate_sweep(RotateSpec("neumann-inner", Disk(a0, 1.0),
                                     Disk((0.5, 0.0), 0.15625, closed=True),
                                     a0, eta, svals,
                                     fixed_hole=Disk(a0, 0.15625, closed=True)),
                          SolverConfig(p=p), g)
        spread = (max(sw.lambdas) - min(sw.lambdas)) / min(sw.lambdas)
        ok &= spread <= 1e-3 and sw.direction == "constant"
        details.append(f"radial p={p:g}: spread {spread:.1e}")
    _report(7, "rotation monotonicity", ok, "; ".join(details), t0)


# ---------------------------------------------------------------------------
# 8. eigenfunction symmetry at spacing 1/64
# ---------------------------------------------------------------------------


def test_criterion_08_eigenfunction_symmetry():
    t0 = time.time()
    g = _grid64()
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((-0.25, 0.0), 0.2, closed=True), g)
    details = []
    ok = True
    for bc_inner in (DIRICHLET, NEUMANN):
        D = PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET,
                            bc_inner=bc_inner)
        rep = symmetry_check(D, SymmetrySpec((-0.25, 0.0), (1.0, 0.0)),
                             SolverConfig(p=2.0))
        ok &= rep.max_defect <= 1e-3 and rep.converged
        details.append(f"{bc_inner}-hole defect {rep.max_defect:.1e} "
                       f"over {len(rep.defects)} polarizers")
    _report(8, "eigenfunction symmetry", ok, "; ".join(details), t0)


# ---------------------------------------------------------------------------
# 9. annulus study at spacing 1/64
# ---------------------------------------------------------------------------


def test_criterion_09_annulus_study():
    t0 = time.time()
    g = _grid64()
    rep = annulus_study(AnnulusSpec(1.0, 0.2, 0.25, 0.1, step_cells=1,
                                    line_offset=0.4375), SolverConfig(p=2.0), g)
    # the on-axis [-alpha, 0] segment is empty for these parameters (the
    # obstacle cannot clear the hole there); the study records that, and
    # the increasing claims are certified on the nonempty segments
    mid_empty = rep.mid_segment is None and \
        any("mid-increasing" in n for n in rep.notes)
    off_ok = rep.offaxis_segment is not None and \
        rep.offaxis_segment.direction == "increasing" and \
        rep.offaxis_segment.min_margin > 1e-4
    left = [(s, l) for s, l in zip(rep.axis_sweep.params,
                                   rep.axis_sweep.lambdas)
            if s <= rep.r_under]
    left_ok = len(left) >= 2 and all(b[1] > a[1] for a, b in zip(left, left[1:]))
    right_ok = rep.right_segment is not None and \
        rep.right_segment.direction == "decreasing"
    uni_ok = rep.unimodal and rep.argmax_interior and \
        0.0 < rep.argmax_param < rep.r_bar
    circles_ok = all(c.ordered for c in rep.circle_checks)
    ok = mid_empty and off_ok and left_ok and right_ok and uni_ok and circles_ok
    _report(9, "annulus study", ok,
            f"argmax {rep.argmax_param:.4f} in (0, {rep.r_bar:g}), "
            f"unimodal={rep.unimodal}, off-axis margin "
            f"{rep.offaxis_segment.min_margin:.1e}, left increasing over "
            f"{len(left)} samples, circles ordered={circles_ok}", t0)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

_DET_SCENARIOS = [
    ("solve", """
    {
      "kind": "solve",
      "grid": {"origin": [0.0, 0.0], "spacing": 0.03125, "nx": 32, "ny": 32},
      "domain": {"outer": {"type": "rectangle", "lo": [0, 0], "hi": [1, 1],
                           "closed": true}}
    }
    """, ("result.csv", "verdict.json", "eigenfunction.pgm",
          "eigenfunction.csv")),
    ("translate", """
    {
      "kind": "translate-sweep",
      "grid": {"origin": [-0.625, -0.625], "spacing": 0.03125, "nx": 40, "ny": 40},
      "translate": {
        "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "obstacle": {"type": "disk", "center": [0.0, 0.0], "radius": 0.15,
                     "closed": true},
        "direction": [1.0, 0.0],
        "s_values": [0.0, 0.0625, 0.125]
      }
    }
    """, ("result.csv", "verdict.json", "sweep.svg")),
    ("rotate", """
    {
      "kind": "rotate-sweep",
      "grid": {"origin": [-1.0625, -1.0625], "spacing": 0.03125, "nx": 68, "ny": 68},
      "solver": {"p": 3.0},
      "rotate": {
        "variant": "neumann-inner",
        "outer": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "fixed_hole": {"type": "disk", "center": [-0.25, 0.0], "radius": 0.15625,
                       "closed": true},
        "obstacle": {"type": "disk", "center": [0.25, 0.0], "radius": 0.15625,
                     "closed": true},
        "anchor": [-0.25, 0.0],
        "axis": [1.0, 0.0],
        "s_values": [0.0, 1.0]
      }
    }
    """, ("result.csv", "verdict.json", "sweep.svg")),
]


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    ok = True
    checked = 0
    for name, text, files in _DET_SCENARIOS:
        cfg = parse_config(text)
        d1 = tmp_path / f"{name}_a"
        d2 = tmp_path / f"{name}_b"
        assert run(cfg, str(d1)) == 0
        assert run(cfg, str(d2)) == 0
        for fname in files:
            b1 = (d1 / fname).read_bytes()
            b2 = (d2 / fname).read_bytes()
            ok &= b1 == b2
            checked += 1
    _report(10, "determinism", ok,
            f"{checked} output files byte-identical across reruns", t0)
