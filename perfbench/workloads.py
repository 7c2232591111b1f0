"""The benchmark workloads: inputs from a seed, one timed pass, checks.

Every workload goes through polarlap's public entry points only
(``polarlap.cli.main`` or the ``geometry`` / ``rearrange`` functions), and
looks them up through their modules at call time so the tracer can wrap
them.  A pass returns one ``Item`` per solve, per raster x polarizer block
or per punctured polarization, each carrying its own correctness verdict.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import polarlap.cli as cli
import polarlap.experiments as experiments
from polarlap import geometry as G
from polarlap import rearrange as R

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
CSV_HEADER = "param,lambda,converged,outer_iters,residual"

clock = time.perf_counter


@dataclass
class Item:
    kind: str
    seconds: Optional[float]        # None when the item never ran
    ok: bool
    lam: Optional[float] = None
    lam_ref: Optional[float] = None
    residual: Optional[float] = None
    converged: Optional[bool] = None
    outer_iters: Optional[int] = None
    error: str = ""

    @property
    def drift(self) -> Optional[float]:
        if self.lam is None or self.lam_ref is None:
            return None
        return abs(self.lam - self.lam_ref) / abs(self.lam_ref)


# ---------------------------------------------------------------------------
# solve workloads: scenarios through cli.main, checked against pinned lambdas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str                 # key into reference.json; "" for warm-up runs
    argv: tuple               # cli.main arguments without --out
    verdict: Optional[str] = None   # expected sweep direction


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class _SolveClock:
    """Times each EigenResult-producing call the CLI makes, in call order."""

    SITES = ((cli, "solve"), (experiments, "solve"))

    def __init__(self):
        self.seconds: list[float] = []
        self._saved = []

    def __enter__(self):
        for mod, attr in self.SITES:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._timed(fn))
        return self

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = clock()
            res = fn(*args, **kwargs)
            self.seconds.append(clock() - t0)
            return res
        return timed

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        return False


def read_result_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    rows = []
    for line in lines[1:]:
        param, lam, conv, iters, res = line.split(",")
        rows.append({"param": float(param), "lambda": float(lam),
                     "converged": conv == "true", "outer_iters": int(iters),
                     "residual": float(res)})
    return rows


def check_outputs(sc: Scenario, rc: int, out: Path, seconds: list,
                  reference: dict) -> list[Item]:
    """One Item per pinned reference point of the scenario.

    An item passes when the call exited 0, the sweep verdict (if any) is the
    expected one, the point is converged at the pinned parameter, and its
    lambda is within reference["lambda_rel_tol"] of the pinned value.
    """
    ref = reference["scenarios"][sc.name]
    tol = reference["lambda_rel_tol"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    rows = []
    try:
        rows = read_result_csv(out / "result.csv")
        if sc.verdict is not None:
            verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
            if verdict.get("direction") != sc.verdict:
                problems.append(f"verdict {verdict.get('direction')!r}, "
                                f"expected {sc.verdict!r}")
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
    if len(rows) != len(ref["lambdas"]):
        problems.append(f"{len(rows)} result rows, expected {len(ref['lambdas'])}")

    items = []
    for k, (param, lam_ref) in enumerate(zip(ref["params"], ref["lambdas"])):
        secs = seconds[k] if k < len(seconds) else None
        if k >= len(rows):
            items.append(Item("solve", secs, False, lam_ref=lam_ref,
                              error="; ".join(problems)))
            continue
        row = rows[k]
        item = Item("solve", secs, True, row["lambda"], lam_ref,
                    row["residual"], row["converged"], row["outer_iters"])
        errs = list(problems)
        if row["param"] != param:
            errs.append(f"param {row['param']!r}, expected {param!r}")
        if not row["converged"]:
            errs.append("not converged")
        if not item.drift <= tol:
            errs.append(f"lambda drift {item.drift:.3g} above {tol:g}")
        item.ok = not errs
        item.error = "; ".join(errs)
        items.append(item)
    return items


def run_scenario(sc: Scenario, root: Path, out: Path) -> tuple[int, list]:
    """cli.main on one scenario; returns (exit code, per-solve seconds)."""
    argv = [sc.argv[0], "--config", str(root / sc.argv[1]), *sc.argv[2:],
            "--out", str(out)]
    with _SolveClock() as timer:
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a dead run
            print(f"perfbench: {sc.name or sc.argv} raised "
                  f"{type(exc).__name__}: {exc}", flush=True)
            rc = -1
    return rc, timer.seconds


@dataclass
class SolveInputs:
    root: Path
    out: Path
    scenarios: tuple
    warmups: tuple
    reference: dict


def _solve_setup(scenarios, warmups, tag):
    def setup(seed: int, root: Path) -> SolveInputs:
        out = root / ".perfbench_out" / tag
        out.mkdir(parents=True, exist_ok=True)
        for sc in scenarios + warmups:
            if not (root / sc.argv[1]).is_file():
                raise FileNotFoundError(sc.argv[1])
        return SolveInputs(root, out, scenarios, warmups, load_reference())
    return setup


def _solve_warmup(inputs: SolveInputs) -> None:
    # failures are left to the timed passes, where the gate counts them
    for k, sc in enumerate(inputs.warmups):
        run_scenario(sc, inputs.root, inputs.out / f"warmup{k}")


def _solve_pass(inputs: SolveInputs) -> list[Item]:
    items = []
    for sc in inputs.scenarios:
        out = inputs.out / sc.name
        rc, seconds = run_scenario(sc, inputs.root, out)
        items += check_outputs(sc, rc, out, seconds, inputs.reference)
    return items


CFG = "perfbench/configs/"
SWEEPS = (
    Scenario("translate_sweep_disk",
             ("translate-sweep", CFG + "translate_sweep_disk.cfg"), "decreasing"),
    Scenario("rotate_sweep_annulus",
             ("rotate-sweep", CFG + "rotate_sweep_annulus.cfg"), "increasing"),
)
# the same sweeps on the 66 x 66 grid (spacing 1/32): same code paths, ~1/8 cost
SWEEP_WARMUPS = tuple(Scenario("", sc.argv + ("--grid-n", "66")) for sc in SWEEPS)
NONLINEAR = (
    Scenario("ref_annulus_p3", ("solve", CFG + "solve_ref_annulus.cfg", "--p", "3")),
    Scenario("ref_annulus_p1.5_n12", ("solve", CFG + "solve_ref_annulus.cfg",
                                      "--p", "1.5", "--grid-n", "12")),
)
# p = 3 on the 33 x 33 grid; the p < 2 descent has no cheap grid to warm on
# (it runs longer at 8 or 10 cells than at 12), and needs no lazy set-up
NONLINEAR_WARMUPS = (Scenario("", NONLINEAR[0].argv + ("--grid-n", "33")),)


# ---------------------------------------------------------------------------
# polar_algebra: seeded rasters, functions and punctured domains
# ---------------------------------------------------------------------------

ALGEBRA_GRID = ((-1.03125, -1.03125), 0.015625, 132, 132)
N_RASTERS = 12
# 12 x 8 raster + 3 x 8 punctured = 120 items: a pass has a p90 tail, and
# the pooled median falls well inside the slower raster items rather than
# at the edge between the two kinds, where a small shift moves it far
N_DOMAINS = 3
NORM_EXPONENTS = (1.5, 2.0, 3.0)   # every block checks all three


@dataclass
class AlgebraInputs:
    grid: object
    pool: list
    rasters: list
    functions: list
    obstacles: list         # (center, radius) of each seeded disk obstacle


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws, one uniform in each of n equal strata of [lo, hi), in
    stratum order.

    The cost of a raster or norm operation depends on the density drawn
    (sorting many zeros is cheaper), so stratifying keeps the work of a
    pass nearly the same from seed to seed while every input stays random.
    """
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _algebra_setup(seed: int, root: Path) -> AlgebraInputs:
    rng = np.random.default_rng(seed)
    grid = G.Grid(*ALGEBRA_GRID)
    pool = G.default_polarizer_pool(grid)
    # the k-th density stratum goes with the k-th support stratum, so a
    # seed cannot pair a dense raster with a dense function and make a pass
    # heavier; the shared permutation shuffles the pairs
    order = rng.permutation(N_RASTERS)
    densities = _stratified(rng, 0.2, 0.8, N_RASTERS)[order]
    keeps = _stratified(rng, 0.2, 0.9, N_RASTERS)[order]
    rasters, functions = [], []
    for density, keep_frac in zip(densities, keeps):
        rasters.append(G.RasterSet(grid, rng.random(grid.shape) < density))
        keep = rng.random(grid.node_shape) < keep_frac
        values = np.where(keep, rng.random(grid.node_shape), 0.0)
        functions.append(R.GridFunction(grid, values, G.full_raster(grid)))
    obstacles = []
    for radius in rng.permutation(_stratified(rng, 0.1, 0.3, N_DOMAINS)):
        radius = float(radius)
        reach = 0.9 - radius           # keeps a free ring inside the unit disk
        rho = reach * math.sqrt(float(rng.random()))
        phi = 2.0 * math.pi * float(rng.random())
        obstacles.append(((rho * math.cos(phi), rho * math.sin(phi)), radius))
    return AlgebraInputs(grid, pool, rasters, functions, obstacles)


def raster_block(H, A, u) -> Item:
    """Every set and function operation on one raster x polarizer pair, then
    the exact identities: measure preservation, idempotence, reflection
    duality, invariance and witness characterisations, bit-exact norms."""
    t0 = clock()
    P = G.polarize_set(H, A)
    Pd = G.dual_polarize_set(H, A)
    sA = G.reflect_set(H, A)
    invariant = G.is_polarization_invariant(H, A)
    wa, wb = G.witness_sets(H, A)
    PP = G.polarize_set(H, P)
    rP = G.reflect_set(H, P)
    pu = R.polarize_function(H, u)
    norms = [(R.nodal_p_norm(u, p), R.nodal_p_norm(pu, p)) for p in NORM_EXPONENTS]
    secs = clock() - t0
    unmoved = P.same_cells(A)
    checks = {
        "measure": P.count() == A.count() == Pd.count(),
        "idempotence": PP.same_cells(P),
        "duality": rP.same_cells(Pd),
        "invariance": invariant == unmoved,
        "witness A_H": wa.is_empty() == unmoved,
        "witness B_H": wb.is_empty() == P.same_cells(sA),
        "norm": all(n0 == n1 for n0, n1 in norms),
    }
    bad = [k for k, good in checks.items() if not good]
    return Item("raster", secs, not bad, error=", ".join(bad))


def punctured_block(H, D) -> Item:
    """polarize_punctured against the set identity P(free) = P(outer) minus
    the dual polarization of the obstacles, with the free measure kept."""
    t0 = clock()
    D2 = G.polarize_punctured(H, D)
    lhs = G.polarize_set(H, D.free())
    rhs = G.polarize_set(H, D.outer).minus(G.dual_polarize_set(H, D.obstacle_union()))
    secs = clock() - t0
    free2 = D2.free()
    ok = (free2.same_cells(lhs) and free2.same_cells(rhs)
          and free2.count() == D.free().count())
    return Item("punctured", secs, ok, error="" if ok else "punctured identity")


def _guarded(kind: str, block: Callable[[], Item]) -> Item:
    try:
        return block()
    except Exception as exc:  # an exception is a failed item, not a dead run
        return Item(kind, None, False, error=f"{type(exc).__name__}: {exc}")


def _build_domains(inputs: AlgebraInputs) -> list:
    outer = G.rasterize(G.Disk((0.0, 0.0), 1.0), inputs.grid)
    return [G.PuncturedDomain(outer, (G.rasterize(G.Disk(c, r, closed=True),
                                                  inputs.grid),))
            for c, r in inputs.obstacles]


def _algebra_pass(inputs: AlgebraInputs, limit: Optional[int] = None) -> list[Item]:
    items = []
    pairs = list(zip(inputs.rasters, inputs.functions))[:limit]
    for A, u in pairs:
        for H in inputs.pool[:limit]:
            items.append(_guarded("raster", lambda: raster_block(H, A, u)))
    try:
        domains = _build_domains(inputs)[:limit]
    except Exception as exc:
        return items + [Item("punctured", None, False, error=repr(exc))] * (
            len(inputs.obstacles[:limit]) * len(inputs.pool[:limit]))
    for D in domains:
        for H in inputs.pool[:limit]:
            items.append(_guarded("punctured", lambda: punctured_block(H, D)))
    return items


def _algebra_warmup(inputs: AlgebraInputs) -> None:
    _algebra_pass(inputs, limit=1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    warmup: Callable
    run_pass: Callable


WORKLOADS = {
    "sweep_p2": Workload(_solve_setup(SWEEPS, SWEEP_WARMUPS, "sweep_p2"),
                         _solve_warmup, _solve_pass),
    "solve_pnl": Workload(_solve_setup(NONLINEAR, NONLINEAR_WARMUPS, "solve_pnl"),
                          _solve_warmup, _solve_pass),
    "polar_algebra": Workload(_algebra_setup, _algebra_warmup, _algebra_pass),
}
