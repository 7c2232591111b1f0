"""First-eigenpair solver: closed-form oracles, cross-checks, invariances."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import jn_zeros

from polarlap.errors import NoFreeNodes, ZeroFunction
from polarlap.geometry import (
    DIRICHLET,
    NEUMANN,
    Disk,
    Grid,
    PuncturedDomain,
    RasterSet,
    Rectangle,
    rasterize,
)
from polarlap.discretize import (
    StencilPattern,
    hessian_flat,
    stiffness_matrix,
    triangulate,
)
from polarlap import eigensolve
from polarlap.eigensolve import (
    EigenResult,
    _TwoGrid,
    _lobpcg,
    _mass_normalize,
    _smallest_eigenpair,
    SolverConfig,
    check_weak_form,
    rayleigh,
    solve,
)

from conftest import (
    _triangle_assembly,
    _triangle_tables,
    centered_grid,
    unit_grid,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _square_mesh(n, bc=DIRICHLET, allow_pn=False):
    g = unit_grid(n)
    outer = rasterize(Rectangle((0, 0), (1, 1), closed=True), g)
    return triangulate(PuncturedDomain(outer, (), bc_outer=bc,
                                       allow_pure_neumann=allow_pn))


def _disk_mesh(n, radius=1.0):
    ncells = 2 * n + 8
    half = radius + 4.0 / n
    g = Grid((-half, -half), 2 * half / ncells, ncells, ncells)
    outer = rasterize(Disk((0.0, 0.0), radius), g)
    return triangulate(PuncturedDomain(outer, (), bc_outer=DIRICHLET))


def _annulus_mesh(n, R=0.55, r=0.15, center=(0.0, 0.0), bc_inner=DIRICHLET):
    g = centered_grid(n, 0.6)
    outer = rasterize(Disk((0.0, 0.0), R), g)
    hole = rasterize(Disk(center, r, closed=True), g)
    return triangulate(PuncturedDomain(outer, (hole,), bc_outer=DIRICHLET,
                                       bc_inner=bc_inner))


# ---------------------------------------------------------------------------
# closed-form oracles (coarse versions; the pinned-resolution runs live in
# the acceptance suite)
# ---------------------------------------------------------------------------


def test_square_dirichlet_eigenvalue():
    res = solve(_square_mesh(32))
    exact = 2.0 * math.pi ** 2  # separation of variables
    assert res.converged
    assert abs(res.lam - exact) / exact < 0.01


def test_disk_dirichlet_eigenvalue():
    res = solve(_disk_mesh(32))
    exact = jn_zeros(0, 1)[0] ** 2  # square of the first Bessel J0 zero
    assert res.converged
    assert abs(res.lam - exact) / exact < 0.025


def test_pure_neumann_square():
    res = solve(_square_mesh(16, bc=NEUMANN, allow_pn=True))
    assert res.lam <= 1e-8
    v = res.u.values
    assert np.ptp(v) <= 1e-12 * max(1.0, abs(v).max())  # constant profile


def test_pure_neumann_p3():
    res = solve(_square_mesh(16, bc=NEUMANN, allow_pn=True),
                  SolverConfig(p=3.0))
    assert res.lam <= 1e-8


# ---------------------------------------------------------------------------
# result invariants
# ---------------------------------------------------------------------------


def _check_result_invariants(mesh, res, p):
    from polarlap.discretize import energy_p, mass_p
    m = mass_p(mesh, res.u, p)
    assert abs(m - 1.0) < 1e-10
    assert abs(res.lam - energy_p(mesh, res.u, p) / m) <= 1e-10 * max(res.lam, 1.0)
    assert np.all(res.u.values >= 0.0)
    flat = mesh.flat_values(res.u)
    if mesh.dirichlet_nodes.size:
        assert np.all(flat[mesh.dirichlet_nodes] == 0.0)


def test_result_invariants_p2():
    mesh = _annulus_mesh(24)
    res = solve(mesh)
    _check_result_invariants(mesh, res, 2.0)


def test_result_invariants_p3():
    mesh = _annulus_mesh(24)
    res = solve(mesh, SolverConfig(p=3.0))
    _check_result_invariants(mesh, res, 3.0)


# ---------------------------------------------------------------------------
# rayleigh quotient
# ---------------------------------------------------------------------------


def test_rayleigh_consistency_with_solver():
    mesh = _annulus_mesh(20)
    res = solve(mesh)
    assert rayleigh(mesh, res.u, 2.0) == pytest.approx(res.lam, rel=1e-10)


def test_rayleigh_scale_invariance(rng):
    mesh = _annulus_mesh(16)
    flat = np.zeros(mesh.n_nodes)
    flat[mesh.free_nodes] = rng.random(mesh.n_free) + 0.1
    u = mesh.function_from_flat(flat)
    for t in (2.0, -3.5, 0.125):
        ut = mesh.function_from_flat(t * flat)
        assert rayleigh(mesh, ut, 2.0) == pytest.approx(rayleigh(mesh, u, 2.0),
                                                        rel=1e-12)


def test_rayleigh_constant_on_pure_neumann():
    mesh = _square_mesh(8, bc=NEUMANN, allow_pn=True)
    u = mesh.function_from_flat(np.ones(mesh.n_nodes))
    assert rayleigh(mesh, u, 2.0) == 0.0


def test_rayleigh_zero_function_raises():
    mesh = _square_mesh(8)
    u = mesh.function_from_flat(np.zeros(mesh.n_nodes))
    with pytest.raises(ZeroFunction):
        rayleigh(mesh, u, 2.0)


def test_no_free_nodes_raises():
    g = Grid((0.0, 0.0), 0.5, 2, 2)
    m = np.zeros((2, 2), bool)
    m[0, 0] = True
    mesh = triangulate(PuncturedDomain(RasterSet(g, m), ()))
    assert mesh.n_free == 0
    with pytest.raises(NoFreeNodes):
        solve(mesh)


# ---------------------------------------------------------------------------
# general-p path
# ---------------------------------------------------------------------------


def _eigsh_pair(mesh):
    # smallest eigenpair of (stiffness, lumped mass) by ARPACK shift-invert
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    K = stiffness_matrix(mesh)
    m = mesh.mass_w[mesh.free_nodes]
    lam, vec = spla.eigsh(K, k=1, M=sp.diags(m), sigma=0.0, which="LM")
    return float(lam[0]), vec[:, 0]


def test_solve_p_matches_p2_path(rng):
    # ten random punctured domains: the driver at p = 2 agrees with an
    # independent sparse eigensolver on the same discrete pencil
    meshes = [_square_mesh(16)]
    for k in range(9):
        cx = float(rng.uniform(-0.08, 0.08))
        cy = float(rng.uniform(-0.08, 0.08))
        r = float(rng.uniform(0.08, 0.18))
        R = float(rng.uniform(0.45, 0.55))
        bc = DIRICHLET if k % 2 == 0 else NEUMANN
        meshes.append(_annulus_mesh(20, R=R, r=r, center=(cx, cy), bc_inner=bc))
    for mesh in meshes:
        a = solve(mesh, SolverConfig(p=2.0))
        lam, _ = _eigsh_pair(mesh)
        assert a.converged
        assert abs(a.lam - lam) / lam < 1e-6


def test_lambda_continuous_in_p():
    mesh = _annulus_mesh(16)
    lams = []
    for p in (2.0, 2.05, 2.1, 2.15, 2.2):
        lams.append(solve(mesh, SolverConfig(p=p)).lam)
    for a, b in zip(lams, lams[1:]):
        assert abs(b - a) / a < 0.20  # no jumps along the p-sampling


def test_hot_loop_builds_no_grid_functions(monkeypatch):
    # the outer and inner loops run on free-node vectors; only the result
    # is a GridFunction
    from polarlap.rearrange import GridFunction
    built = []
    post_init = GridFunction.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(GridFunction, "__post_init__", counted)
    mesh = _annulus_mesh(12)
    solve(mesh, SolverConfig(p=1.5, max_outer=3))
    assert len(built) < 10


@pytest.mark.parametrize("field, value", [
    ("max_outer", 0), ("max_outer", -3),
])
def test_solver_config_rejects_step_limit_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field", ["p", "outer_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_solver_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_lobpcg_step_limit_is_not_converged():
    # at p = 2 a solve converges only when its residual meets the bound;
    # this one needs about 22 LOBPCG steps, so 3 leave it unconverged
    res = solve(_annulus_mesh(16), SolverConfig(p=2.0, max_outer=3))
    assert res.converged is False
    assert res.outer_iters == 3


@pytest.mark.parametrize("bc_inner", [DIRICHLET, NEUMANN])
def test_lobpcg_matches_eigsh(bc_inner):
    mesh = _annulus_mesh(32, bc_inner=bc_inner)
    cfg = SolverConfig(p=2.0)
    res = solve(mesh, cfg)
    lam, _ = _eigsh_pair(mesh)
    assert res.converged
    assert abs(res.lam - lam) <= 1e-12 * lam
    # the stop is |K x - lam B x|_inf <= outer_tol lam |B x|_inf; the
    # reported residual is the gradient form, 2 (K x - lam B x)
    bx = mesh.mass_w * mesh.flat_values(res.u)
    assert res.residual <= 2.0 * cfg.outer_tol * res.lam * np.abs(bx).max()


def test_p2_solve_calls_no_lapack_eigh(monkeypatch):
    # the Ritz problem is solved in plain Python: the first LAPACK eigh
    # call maps about 1.4 MB of library pages, which showed in the peak
    # memory of a p = 2 sweep
    import scipy.linalg

    def refused(*args, **kwargs):
        raise AssertionError("LAPACK eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    res = solve(_annulus_mesh(16), SolverConfig(p=2.0))
    assert res.converged


def test_smallest_eigenpair_of_known_spectrum(rng):
    # Ritz matrices pair the eigenvalue (about 10) with rows of the
    # preconditioned residual and the previous direction up to 1e4 larger
    for k in (1, 2, 3):
        for _ in range(20):
            Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
            d = np.sort(10.0 ** rng.uniform(0.0, 4.0, k))
            A = (Q * d) @ Q.T
            lam, c = _smallest_eigenpair(A.tolist())
            assert abs(lam - d[0]) <= 1e-12 * d[-1]
            assert abs(np.linalg.norm(c) - 1.0) <= 1e-14
            assert np.abs(A @ c - lam * np.asarray(c)).max() <= 1e-12 * d[-1]


def _ritz_sizes(monkeypatch):
    # the order of each Rayleigh-Ritz problem: the number of kept basis rows
    sizes = []

    def recorded(A):
        sizes.append(len(A))
        return _smallest_eigenpair(A)

    monkeypatch.setattr(eigensolve, "_smallest_eigenpair", recorded)
    return sizes


def test_lobpcg_drops_w_in_the_span_of_x(monkeypatch):
    # with one free node every start is the eigenvector and w = T r lies in
    # the span of x (r is often exactly zero): its Cholesky pivot is not
    # above the drop bound, so w is left out rather than divided by a zero
    # pivot, and the first step converges
    sizes = _ritz_sizes(monkeypatch)
    for h in np.linspace(0.1, 2.9, 15):
        mesh = triangulate(PuncturedDomain(RasterSet(
            Grid((0.0, 0.0), float(h), 2, 2), np.ones((2, 2), bool)), ()))
        K = stiffness_matrix(mesh)
        m = mesh.mass_w[mesh.free_nodes]
        for sign in (1.0, -1.0):
            sizes.clear()
            x = sign * _mass_normalize(mesh, np.ones(1), 2.0)
            x, lam, res, steps, converged = _lobpcg(
                mesh, _TwoGrid(mesh, K), x, 1e-8, 5)
            assert sizes == [1]
            assert steps == 1 and converged
            assert abs(lam - K[0, 0] / m[0]) <= 1e-14 * lam
            assert np.all(np.isfinite(x)) and math.isfinite(res)


@pytest.mark.parametrize("bc_inner", [DIRICHLET, NEUMANN])
def test_lobpcg_first_step_has_no_direction(monkeypatch, bc_inner):
    # d is zero on the first step, so that Ritz problem is 2x2; no later
    # row is dropped on a Dirichlet or a Neumann hole.  A restart from the
    # converged vector converges in one step on the same lam.
    mesh = _annulus_mesh(32, bc_inner=bc_inner)
    T = _TwoGrid(mesh, stiffness_matrix(mesh))
    sizes = _ritz_sizes(monkeypatch)
    x, lam, _, steps, converged = _lobpcg(
        mesh, T, _mass_normalize(mesh, np.ones(mesh.n_free), 2.0), 1e-8, 200)
    assert converged
    assert sizes == [2] + [3] * (steps - 1)
    assert abs(lam - _eigsh_pair(mesh)[0]) <= 1e-12 * lam
    sizes.clear()
    y, again, res, steps, converged = _lobpcg(mesh, T, x, 1e-8, 200)
    assert steps == 1 and converged and sizes == [2]
    assert abs(again - lam) <= 1e-12 * lam
    assert np.all(np.isfinite(y)) and math.isfinite(res)


def test_lobpcg_peak_memory_at_spacing_1_64(ref_stiffness):
    # the step works in one (4, 2, n) block: 12.07 n-vectors traced at peak
    # on this mesh, where fresh (3, n) and (2, 2n) Gram buffers measured
    # 19.1 and raised a p = 2 sweep's peak RSS
    import tracemalloc
    mesh, K = ref_stiffness
    T = _TwoGrid(mesh, K)
    x = _mass_normalize(mesh, np.ones(mesh.n_free), 2.0)
    _lobpcg(mesh, T, x, 1e-8, 200)  # warm: first-call allocations
    tracemalloc.start()
    try:
        _lobpcg(mesh, T, x, 1e-8, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.5 * 8 * mesh.n_free


@pytest.mark.parametrize("name, iters", [
    ("translate_sweep_disk.cfg", (34, 34, 32, 30, 29)),
    ("rotate_sweep_annulus.cfg", (27, 28, 28, 31, 30)),
])
def test_sweep_p2_step_counts_at_spacing_1_64(name, iters):
    # the LOBPCG steps of the shipped p = 2 sweeps: a Dirichlet translation
    # and a rotation with a Neumann hole, 1/64
    from polarlap import cli, experiments
    cfg = cli.parse_config((CONFIG_DIR / name).read_text())
    if cfg.kind == "translate-sweep":
        sweep = experiments.translate_sweep(cfg.translate, cfg.solver, cfg.grid)
    else:
        sweep = experiments.rotate_sweep(cfg.rotate, cfg.solver, cfg.grid)
    assert sweep.outer_iters == iters
    assert all(sweep.converged)


def test_newton_cg_failure_is_not_converged(monkeypatch):
    # at p > 2 a Newton step whose PCG misses its rtol is refused, so every
    # continuation stage fails and the solve ends unconverged at max_outer
    import scipy.sparse.linalg as spla
    cg = spla.cg

    def failing(*args, **kwargs):
        y, _ = cg(*args, **kwargs)
        return y, 1

    monkeypatch.setattr(spla, "cg", failing)
    res = solve(_annulus_mesh(16), SolverConfig(p=3.0, max_outer=50))
    assert res.converged is False
    assert res.outer_iters == 50


def test_solve_p16_small_mesh():
    mesh = _annulus_mesh(12)
    res = solve(mesh, SolverConfig(p=1.6))
    assert res.converged
    _check_result_invariants(mesh, res, 1.6)


def _nan_gradient(monkeypatch):
    # the energy kernel of every evaluation returns its energy and a NaN
    # gradient
    kernel = eigensolve.energy_grad_flat
    monkeypatch.setattr(eigensolve, "energy_grad_flat", lambda M, flat, p: (
        kernel(M, flat, p)[0], np.full(M.n_free, np.nan)))


def test_nan_gradient_is_not_converged(monkeypatch):
    # a NaN gradient (as after an overflow) must not raise; LOBPCG steps
    # count toward max_outer, and here the p = 2 start alone takes all five
    # (test_nan_residual_fails_every_stage goes past it)
    _nan_gradient(monkeypatch)
    res = solve(_annulus_mesh(12), SolverConfig(p=1.5, max_outer=5))
    assert res.converged is False
    assert res.outer_iters == 5


def test_nan_residual_fails_every_stage(monkeypatch):
    # past the p = 2 start, a NaN residual refuses each stage's first step
    # before a Hessian is built; each refusal counts as a step, and the
    # solve ends unconverged at max_outer without raising
    hessians = []
    _nan_gradient(monkeypatch)
    monkeypatch.setattr(eigensolve, "hessian_flat",
                        lambda *args: hessians.append(1))
    res = solve(_annulus_mesh(12), SolverConfig(p=1.5, max_outer=40))
    assert res.converged is False
    assert res.outer_iters == 40
    assert not hessians


def test_underflowing_energy_is_not_converged():
    # on a disk of radius 20 the p = 300 energy of a unit-mass iterate
    # underflows to 0, so lam = 0 and res_rel is not finite; the solve
    # must end unconverged rather than divide by zero
    g = Grid((-25.0, -25.0), 50.0 / 16, 16, 16)
    mesh = triangulate(PuncturedDomain(rasterize(Disk((0.0, 0.0), 20.0), g),
                                       ()))
    res = solve(mesh, SolverConfig(p=300.0, max_outer=60))
    assert res.converged is False
    assert res.outer_iters == 60


# ---------------------------------------------------------------------------
# two-grid preconditioner
# ---------------------------------------------------------------------------


def _ref_annulus_mesh(n):
    # unit disk minus a closed r = 0.3 disk, both Dirichlet, on n x n cells
    # of the window [-1.03125, 1.03125]^2 (spacing 1/64 at n = 132)
    g = Grid((-1.03125, -1.03125), 2.0625 / n, n, n)
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((0.0, 0.0), 0.3, closed=True), g)
    return triangulate(PuncturedDomain(outer, (hole,)))


@pytest.fixture(scope="module")
def ref_stiffness():
    mesh = _ref_annulus_mesh(132)
    return mesh, stiffness_matrix(mesh)


def test_two_grid_symmetric_positive(ref_stiffness, rng):
    mesh, K = ref_stiffness
    T = _TwoGrid(mesh, K)
    for _ in range(5):
        a, b = rng.standard_normal((2, mesh.n_free))
        Ta, Tb = T.matvec(a), T.matvec(b)
        assert abs(a @ Tb - b @ Ta) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(Tb)
        assert a @ Ta > 0.0


def test_two_grid_cold_solve_iterations(ref_stiffness, rng):
    # plain CG takes about 400 steps on this system; the two-grid about 30
    import scipy.sparse.linalg as spla
    mesh, K = ref_stiffness
    b = rng.standard_normal(mesh.n_free)
    steps = []
    y, info = spla.cg(K, b, rtol=1e-12, atol=0.0, M=_TwoGrid(mesh, K),
                      callback=lambda _: steps.append(1))
    assert info == 0
    assert len(steps) <= 60
    assert np.linalg.norm(K @ y - b) <= 1e-12 * np.linalg.norm(b)


def _corner_touch_mesh(bc):
    # the largest edge-connected part of a seeded random raster; it has
    # free cells that touch only at a corner, and at this spacing s is just
    # above 1/2, so some of the assembly's diagonal sums round
    from polarlap.geometry import connected_components
    g = Grid((-0.3, 0.1), 0.45, 15, 13)
    m = np.random.default_rng(7).random(g.shape) < 0.6
    _, labels = connected_components(RasterSet(g, m))
    free = labels == np.argmax(np.bincount(labels.ravel())[1:]) + 1
    assert np.any(free[:-1, :-1] & free[1:, 1:] & ~free[:-1, 1:] & ~free[1:, :-1])
    assert np.any(free[:-1, 1:] & free[1:, :-1] & ~free[:-1, :-1] & ~free[1:, 1:])
    return triangulate(PuncturedDomain(RasterSet(g, free), (), bc_outer=bc,
                                       allow_pure_neumann=True))


_STENCIL_CASES = ["ref_1/64", "ref_12", "ref_50", "neumann_hole",
                  "corners_dirichlet", "corners_neumann"]


def _stencil_case_mesh(case, ref_stiffness):
    return {"ref_1/64": lambda: ref_stiffness[0],
            "ref_12": lambda: _ref_annulus_mesh(12),
            "ref_50": lambda: _ref_annulus_mesh(50),
            "neumann_hole": lambda: _annulus_mesh(24, bc_inner=NEUMANN),
            "corners_dirichlet": lambda: _corner_touch_mesh(DIRICHLET),
            "corners_neumann": lambda: _corner_touch_mesh(NEUMANN),
            "square": lambda: _square_mesh(24)}[case]()


def _stored_pattern(A, ref):
    # whether each entry of the COO reference is stored in A; A must store
    # every nonzero of ref and nothing else
    stored = A.copy()
    stored.data[:] = 1.0
    stored = np.asarray(stored[ref.row, ref.col]).ravel() == 1.0
    assert stored.sum() == A.nnz
    assert np.all(ref.data[~stored] == 0.0)
    return stored


@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_stencil_stiffness_equals_triangle_assembly(case, ref_stiffness):
    # K against its own COO -> CSR assembly of (gx gx^T + gy gy^T) area
    # over the triangles: the stencil omits only exact zeros, its
    # off-diagonal entries are the same floats, and a diagonal entry,
    # 2 s times the free cells at the node against a sum of up to 8
    # triangle terms in order, may differ by the rounding of that sum
    mesh = _stencil_case_mesh(case, ref_stiffness)
    tri_nodes, gx, gy = _triangle_tables(mesh)
    local = (gx[:, :, None] * gx[:, None, :] +
             gy[:, :, None] * gy[:, None, :]) * mesh.area
    ref = _triangle_assembly(mesh, tri_nodes, local).tocoo()
    K = stiffness_matrix(mesh)
    assert K.has_canonical_format
    stored = _stored_pattern(K, ref)
    got = np.asarray(K[ref.row, ref.col]).ravel()[stored]
    want = ref.data[stored]
    off = (ref.row != ref.col)[stored]
    assert np.array_equal(got[off], want[off])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_hessian_equals_triangle_assembly(case, p, ref_stiffness, rng):
    # the Hessian at a random positive v against a COO -> CSR assembly of
    # area (w grad phi grad phi^T + c q q^T) over the listed triangles, with
    # w = d2^(p/2-1), c = (p-2) d2^(p/2-2), q = grad v . grad phi and d2
    # the floored |grad v|^2.  The reference runs in long double: where
    # |grad v| is small, w grad phi grad phi^T and c q q^T nearly cancel,
    # and in double precision this summation order then loses up to about
    # a hundred ulps of the largest entry
    mesh = _stencil_case_mesh(case, ref_stiffness)
    flat = mesh.embed(rng.random(mesh.n_free) + 0.1)
    tri_nodes, gx, gy = (np.asarray(a, dtype=np.longdouble)
                         for a in _triangle_tables(mesh))
    tri_nodes = tri_nodes.astype(np.int64)
    vals = flat.astype(np.longdouble)[tri_nodes]
    tgx = (gx * vals).sum(axis=1)
    tgy = (gy * vals).sum(axis=1)
    g2 = tgx * tgx + tgy * tgy
    d2 = g2 + 1e-10 ** 2 * g2.max()
    w = d2 ** (0.5 * p - 1.0)
    c = (p - 2.0) * d2 ** (0.5 * p - 2.0)
    q = tgx[:, None] * gx + tgy[:, None] * gy
    local = mesh.area * (
        w[:, None, None] * (gx[:, :, None] * gx[:, None, :] +
                            gy[:, :, None] * gy[:, None, :]) +
        c[:, None, None] * (q[:, :, None] * q[:, None, :]))
    ref = _triangle_assembly(mesh, tri_nodes, local).tocoo()
    H = hessian_flat(mesh, flat, p)
    assert H.has_canonical_format
    stored = _stored_pattern(H, ref)
    got = np.asarray(H[ref.row, ref.col]).ravel()[stored]
    err = np.abs(got - ref.data[stored]).max()
    assert err <= 6 * np.spacing(float(np.abs(ref.data).max()))


def _filtered_stencil(build, M, *args):
    # the matrix build(M, *args) as it was built before the per-mesh
    # pattern: all 5 (K) or 7 (Hessian) slots of every row gathered per
    # call, then the exact zeros and the columns past the window's edge
    # dropped.  The coupling buffer has rows self, east, north and
    # north-east, each a node raster after nx + 2 zeros; M's copy gathers
    # through patterns of every slot inside the window
    nx1 = M.grid.nx + 1
    lead = nx1 + 1
    every = dataclasses.replace(M)
    stencil = [(3, -nx1 - 1), (2, -nx1), (1, -1), (0, 0), (1, 1), (2, nx1),
               (3, nx1 + 1)]
    for name, slots in (("stencil5", stencil[1:-1]), ("stencil7", stencil)):
        rows, offsets = np.array(slots).T
        g = M.free_nodes[:, None] + lead
        free_index = np.full(M.n_nodes + 2 * lead, -1, dtype=np.int32)
        free_index[lead:-lead] = M.free_index
        cols = free_index[g + offsets]
        inside = cols >= 0
        indptr = np.zeros(M.n_free + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        gather = rows * (lead + M.n_nodes) + g + np.minimum(offsets, 0)
        every.__dict__[name] = StencilPattern(gather[inside], cols[inside],
                                              indptr, None)
    A = build(every, *args)
    A.eliminate_zeros()
    return A


@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_stencil_stiffness_equals_filtered_build(case, ref_stiffness):
    # K's couplings are nonzero on every slot of its pattern, so the
    # pattern build stores the same arrays as the filtered one
    mesh = _stencil_case_mesh(case, ref_stiffness)
    K, ref = stiffness_matrix(mesh), _filtered_stencil(stiffness_matrix, mesh)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, name), getattr(ref, name))


@pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_hessian_equals_filtered_build(case, p, ref_stiffness, rng):
    # the same Hessian entry for entry; the pattern build may also store
    # exact zeros
    mesh = _stencil_case_mesh(case, ref_stiffness)
    flat = mesh.embed(rng.random(mesh.n_free) + 0.1)
    flat[mesh.free_nodes[::5]] = 0.0  # flat triangles: zero couplings
    H = hessian_flat(mesh, flat, p)
    ref = _filtered_stencil(hessian_flat, mesh, flat, p)
    assert (H != ref).nnz == 0
    assert H.nnz >= ref.nnz
    if mesh.n_free <= 2000:
        assert np.array_equal(H.toarray(), ref.toarray())


def test_stencil_pattern_is_built_once_per_mesh(rng):
    # every Hessian of a mesh stores its indices in the mesh's read-only
    # pattern, and the diagonal slots are where the shift goes
    mesh = _annulus_mesh(16)
    pattern = mesh.stencil7
    assert mesh.stencil7 is pattern
    for arr in (pattern.gather, pattern.indices, pattern.indptr,
                pattern.diag):
        assert not arr.flags.writeable
    assert pattern.indices.dtype == pattern.indptr.dtype == np.int32
    flat = mesh.embed(rng.random(mesh.n_free))
    for p in (1.5, 3.0):
        H = hessian_flat(mesh, flat, p)
        assert np.shares_memory(H.indices, pattern.indices)
        assert np.shares_memory(H.indptr, pattern.indptr)
        assert np.array_equal(H.indices[pattern.diag],
                              np.arange(mesh.n_free))
        assert np.array_equal(H.data[pattern.diag], H.diagonal())


def test_p2_solve_builds_no_hessian(monkeypatch):
    # K is built by the stencil directly; only Newton (p != 2) builds
    # Hessians

    def refuse(*args):
        raise AssertionError("p = 2 built a Hessian")

    monkeypatch.setattr(eigensolve, "hessian_flat", refuse)
    assert solve(_annulus_mesh(16), SolverConfig(p=2.0)).converged


def test_two_grid_for_matrix_shares_p(ref_stiffness, rng):
    # a Newton Hessian's cycle keeps the stiffness's prolongation P and
    # takes its smoother and coarse factor from the Hessian, bit for bit;
    # the cycle stays symmetric and positive on a p = 3 Hessian at 1/64
    mesh, K = ref_stiffness
    res = solve(mesh, SolverConfig(p=3.0))
    Kh = hessian_flat(mesh, mesh.flat_values(res.u), 3.0)
    T = _TwoGrid(mesh, K)
    C = T.for_matrix(Kh)
    assert C.P is T.P
    assert C.K is Kh and T.K is K
    assert np.array_equal(C.jacobi, 0.6 / Kh.diagonal())
    assert np.array_equal(C.coarse, eigensolve._band_cholesky(
        (T.PT @ (Kh @ T.P)).tocoo()))
    for _ in range(5):
        a, b = rng.standard_normal((2, mesh.n_free))
        Ca, Cb = C.matvec(a), C.matvec(b)
        assert abs(a @ Cb - b @ Ca) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(Cb)
        assert a @ Ca > 0.0


def test_banded_coarse_solve_matches_dense(ref_stiffness, rng):
    mesh, K = ref_stiffness
    T = _TwoGrid(mesh, K)
    C = (T.PT @ (K @ T.P)).toarray()
    b = rng.standard_normal(C.shape[0])
    want = np.linalg.solve(C, b)
    assert np.linalg.norm(T.coarse_solve(b) - want) <= \
        1e-12 * np.linalg.norm(want)


def test_indefinite_coarse_matrix_raises(ref_stiffness):
    # K minus half its smallest diagonal entry keeps a positive diagonal,
    # but smooth coarse vectors see a negative quotient
    mesh, K = ref_stiffness
    shifted = K - sp.identity(mesh.n_free, format="csr") * (
        0.5 * K.diagonal().min())
    assert shifted.diagonal().min() > 0.0
    with pytest.raises(RuntimeError, match="not positive definite"):
        _TwoGrid(mesh, shifted)


@pytest.mark.parametrize("case", _STENCIL_CASES + ["square"])
def test_two_grid_ignores_stored_zeros(case, ref_stiffness, rng):
    # K on the 7-point pattern, with exact zeros on its south-west and
    # north-east slots, gives the same cycle bit for bit: P's columns are
    # sorted, so no product depends on where a zero is stored (unsorted,
    # the cycles differed on the square, corners_neumann and 16-cell
    # annulus meshes)
    mesh = _stencil_case_mesh(case, ref_stiffness)
    K = stiffness_matrix(mesh)
    zero = np.zeros((2,) + mesh.grid.shape)
    Kz = stiffness_matrix(mesh, rank_one=(zero, zero, zero))
    assert Kz.nnz > K.nnz
    assert (Kz != K).nnz == 0
    b = rng.standard_normal(mesh.n_free)
    assert np.array_equal(_TwoGrid(mesh, Kz).matvec(b),
                          _TwoGrid(mesh, K).matvec(b))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_no_fine_factor_at_any_p(monkeypatch, p):
    # only coarse two-grid matrices are factored, by the banded Cholesky,
    # on both sides of p = 2; no sparse LU is made
    import scipy.sparse.linalg as spla
    band_cholesky = eigensolve._band_cholesky
    rows = []

    def recording(A):
        rows.append(A.shape[0])
        return band_cholesky(A)

    def refuse(*args, **kwargs):
        raise AssertionError("a sparse LU was made")

    monkeypatch.setattr(eigensolve, "_band_cholesky", recording)
    monkeypatch.setattr(spla, "splu", refuse)
    mesh = _annulus_mesh(32)
    res = solve(mesh, SolverConfig(p=p))
    assert res.converged
    assert rows
    assert max(rows) < mesh.n_free // 8


# ---------------------------------------------------------------------------
# work per p != 2 solve
# ---------------------------------------------------------------------------


def _count_energy_calls(monkeypatch) -> list:
    kernel = eigensolve.energy_grad_flat
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(eigensolve, "energy_grad_flat", counted)
    return calls


def test_p15_energy_evaluations_are_bounded(monkeypatch):
    # continuation from the p = 2 eigenfunction (2 -> 1.5 in one stage)
    # makes about 10 evaluations in 19 steps; an inverse-iteration inner
    # descent in the p = 2 metric took 1,163, and 155,270 when it ran on
    # past the rounding floor of its objective.  lam is the
    # residual-converged value (outer_tol 1e-12 gives the same to 2e-16)
    calls = _count_energy_calls(monkeypatch)
    res = solve(_ref_annulus_mesh(12), SolverConfig(p=1.5))
    assert res.converged
    assert len(calls) <= 200
    assert abs(res.lam - 11.558135198969117) <= 1e-10 * res.lam


def test_p19_newton_work_is_bounded(monkeypatch):
    # gradient steps in the p = 2 metric converge slowly near p = 2: at
    # 1/32 they took 1,787 evaluations at p = 1.9 against 457 at p = 1.8;
    # Newton from the p = 2 eigenfunction takes about 5
    calls = _count_energy_calls(monkeypatch)
    res = solve(_ref_annulus_mesh(66), SolverConfig(p=1.9))
    assert res.converged
    assert len(calls) <= 200
    assert abs(res.lam - 17.42371027224627) <= 1e-10 * res.lam


def test_p3_stiffness_assemblies_are_bounded(monkeypatch, ref_stiffness):
    # one Hessian per Newton step, the stencil K is not counted:
    # continuation 2 -> 2.5 -> 3 from the p = 2 eigenfunction builds 11
    # Hessians; inverse iteration started each inner solve on its ray
    # minimizer and assembled 41 in 20 outer steps (23 with a Newton
    # finish), and 125 without that start
    hessian = eigensolve.hessian_flat
    calls = []

    def counted(*args):
        calls.append(1)
        return hessian(*args)

    monkeypatch.setattr(eigensolve, "hessian_flat", counted)
    res = solve(ref_stiffness[0], SolverConfig(p=3.0))
    assert res.converged
    assert len(calls) <= 60
    assert abs(res.lam - 81.71864196072261) <= 1e-10 * res.lam


# ---------------------------------------------------------------------------
# residual stop at p != 2
# ---------------------------------------------------------------------------


def _res_rel(mesh, res):
    # max|grad E - lam grad M| / (lam max|grad M|), the quantity LOBPCG
    # bounds at p = 2
    from polarlap.discretize import grad_energy_p, grad_mass_p
    gm = grad_mass_p(mesh, res.u, res.p)
    r = grad_energy_p(mesh, res.u, res.p) - res.lam * gm
    return np.abs(r).max() / (res.lam * np.abs(gm).max())


@pytest.mark.parametrize("p", [1.6, 3.0])
def test_residual_bound_at_spacing_1_64(ref_stiffness, p):
    # a lam-change stop ended p = 3 here at res_rel 1.05e-4
    cfg = SolverConfig(p=p)
    res = solve(ref_stiffness[0], cfg)
    assert res.converged
    assert _res_rel(ref_stiffness[0], res) <= cfg.outer_tol


@pytest.mark.parametrize("p, iters, cg_steps", [
    (1.5, 59, 254), (3.0, 30, 104), (6.0, 57, 470)])
def test_newton_work_at_spacing_1_64(monkeypatch, ref_stiffness, p, iters,
                                     cg_steps):
    # the steps of the reference annulus at 1/64, and its Newton CG
    # iterations at most those of a P rebuilt from every Hessian
    import scipy.sparse.linalg as spla
    cg = spla.cg
    steps = []

    def counting(A, b, **kwargs):
        return cg(A, b, callback=lambda _: steps.append(1), **kwargs)

    monkeypatch.setattr(spla, "cg", counting)
    res = solve(ref_stiffness[0], SolverConfig(p=p))
    assert res.converged
    assert res.outer_iters == iters
    assert 0 < len(steps) <= cg_steps


def test_p3_step_limit_is_not_converged(ref_stiffness):
    # LOBPCG steps count too: the p = 2 start alone takes more than four
    res = solve(ref_stiffness[0], SolverConfig(p=3.0, max_outer=4))
    assert res.converged is False
    assert res.outer_iters == 4


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 6.0])
def test_converged_means_residual_bound(p):
    # a lam-change stop called all of these converged at res_rel 1e-5 to
    # 1e-4.  At p = 6 the first annulus converges (lam 154949.466252948,
    # res_rel 4e-10) to a saddle of the discrete quotient: a
    # symmetry-breaking direction lowers lam, so "converged" means a
    # critical point within the residual bound, not the minimum
    cfg = SolverConfig(p=p)
    for mesh in (_annulus_mesh(16), _ref_annulus_mesh(24), _disk_mesh(12),
                 _square_mesh(16)):
        res = solve(mesh, cfg)
        assert not res.converged or _res_rel(mesh, res) <= cfg.outer_tol


def _record_stage_exponents(monkeypatch) -> list:
    # the exponent of every Newton step, in order
    newton_step = eigensolve._newton_step
    exponents = []

    def recorded(M, T, x, lam, r, p):
        exponents.append(p)
        return newton_step(M, T, x, lam, r, p)

    monkeypatch.setattr(eigensolve, "_newton_step", recorded)
    return exponents


def test_failed_newton_solves_halve_the_p_step(monkeypatch):
    # Newton's projected CG (the only one on a LinearOperator) reports
    # failure on its first two solves; each failure ends its stage, which
    # goes back to the p = 2 start with half the p-step, and the solve
    # still ends on the bound
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    cg = spla.cg
    failed = []

    def failing_newton(A, b, **kwargs):
        y, info = cg(A, b, **kwargs)
        if sp.issparse(A) or len(failed) == 2:
            return y, info
        failed.append(1)
        return y, 1

    monkeypatch.setattr(spla, "cg", failing_newton)
    exponents = _record_stage_exponents(monkeypatch)
    mesh = _annulus_mesh(12)
    cfg = SolverConfig(p=3.0)
    res = solve(mesh, cfg)
    assert exponents[:3] == [2.5, 2.25, 2.125]
    assert res.converged
    assert _res_rel(mesh, res) <= cfg.outer_tol


def test_p16_stage_ends_on_its_own_residuals(monkeypatch, ref_stiffness):
    # the stage at 1.6 lowers res_rel over every 3 steps and reaches the
    # bound; a cap of 10 Newton steps per stage failed it and detoured
    # through q = 1.8 (43 steps)
    exponents = _record_stage_exponents(monkeypatch)
    cfg = SolverConfig(p=1.6)
    res = solve(ref_stiffness[0], cfg)
    assert set(exponents) == {1.6}
    assert res.converged
    assert res.outer_iters <= 35
    assert _res_rel(ref_stiffness[0], res) <= cfg.outer_tol


def _ellipse_24():
    from polarlap.geometry import Ellipse
    g = Grid((-0.75, -0.75), 0.0625, 24, 24)
    outer = rasterize(Ellipse((0.03125, 0.0625), (0.5, 0.22), 0.9), g)
    return triangulate(PuncturedDomain(outer, ()))


def test_underflowing_hessian_fails_the_step(monkeypatch):
    # Hessian weights d2^(p/2-1) that underflow to 0 around a node leave a
    # zero on its diagonal, so the Hessian's two-grid cannot be built; that
    # is a failed Newton step, and the solve ends unconverged instead of
    # raising.  p = 50 on this ellipse did so once per solve while the
    # coarse matrix had a sparse LU, and now converges
    # (test_large_p_on_the_ellipse), so the zero is put on every Hessian
    hessian = eigensolve.hessian_flat
    failures = []

    def underflowed(M, flat, p):
        H = hessian(M, flat, p)
        H.data[M.stencil7.diag[0]] = 0.0
        return H

    set_matrix = eigensolve._TwoGrid._set_matrix

    def recorded(self, K):
        try:
            set_matrix(self, K)
        except RuntimeError:
            failures.append(1)
            raise

    monkeypatch.setattr(eigensolve, "hessian_flat", underflowed)
    monkeypatch.setattr(eigensolve._TwoGrid, "_set_matrix", recorded)
    cfg = SolverConfig(p=50.0)
    res = solve(_ellipse_24(), cfg)
    assert res.converged is False
    assert res.outer_iters == cfg.max_outer
    assert failures


def test_large_p_on_the_ellipse():
    # with the coarse matrix factored by banded Cholesky, the Hessians of
    # this ellipse keep a usable two-grid at large p: p = 40 took 96 steps
    # and p = 50 ended unconverged at 200 while the factor was a sparse LU
    mesh = _ellipse_24()
    res = solve(mesh, SolverConfig(p=40.0))
    assert res.converged
    assert res.outer_iters <= 60
    cfg = SolverConfig(p=50.0)
    res = solve(mesh, cfg)
    assert res.converged
    assert _res_rel(mesh, res) <= cfg.outer_tol


def test_p125_halves_the_p_step(monkeypatch):
    # after the stage at 1.5 the doubled p-step reaches 1.25 at once; that
    # stage fails, and shorter steps through 1.375 reach the bound
    exponents = _record_stage_exponents(monkeypatch)
    mesh = _ref_annulus_mesh(12)
    cfg = SolverConfig(p=1.25)
    res = solve(mesh, cfg)
    assert any(1.25 < q < 1.5 for q in exponents)
    assert res.converged
    assert _res_rel(mesh, res) <= cfg.outer_tol


# ---------------------------------------------------------------------------
# weak form
# ---------------------------------------------------------------------------


def test_weak_form_pairing_with_eigenfunction_is_zero():
    # testing against u itself reproduces the Rayleigh identity exactly
    from polarlap.discretize import grad_energy_p, grad_mass_p
    mesh = _annulus_mesh(16)
    res = solve(mesh)
    g = grad_energy_p(mesh, res.u, 2.0) - res.lam * grad_mass_p(mesh, res.u, 2.0)
    ufree = mesh.flat_values(res.u)[mesh.free_nodes]
    assert abs(float(g @ ufree)) < 1e-10 * res.lam


def test_weak_form_defect_p2_exact_pair():
    # exact discrete eigenpair from an independent sparse eigensolver
    mesh = _annulus_mesh(16)
    lam, vec = _eigsh_pair(mesh)
    x = _mass_normalize(mesh, np.abs(vec), 2.0)
    u = mesh.function_from_flat(mesh.embed(x))
    res = EigenResult(lam, u, 0, 0.0, True, 2.0)
    assert check_weak_form(mesh, res, 20) < 1e-8


def test_weak_form_defect_p2_solver_result():
    mesh = _annulus_mesh(16)
    res = solve(mesh, SolverConfig(p=2.0, outer_tol=1e-13))
    assert check_weak_form(mesh, res, 20) < 1e-6 * res.lam


def test_weak_form_defect_p3():
    mesh = _annulus_mesh(16)
    res = solve(mesh, SolverConfig(p=3.0, outer_tol=1e-13))
    assert res.converged
    assert check_weak_form(mesh, res, 50) < 1e-6 * res.lam


# ---------------------------------------------------------------------------
# domain monotonicity and isometries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_domain_monotonicity(p):
    # removing free cells (all-Dirichlet) never decreases the eigenvalue
    g = centered_grid(20, 0.5)
    big = rasterize(Disk((0.0, 0.0), 0.45), g)
    small = rasterize(Disk((0.02 * 1, 0.0), 0.35), g)
    assert small.is_subset(big)
    cfg = SolverConfig(p=p)
    lam_big = solve(triangulate(PuncturedDomain(big, ())), cfg).lam
    lam_small = solve(triangulate(PuncturedDomain(small, ())), cfg).lam
    assert lam_small >= lam_big - 1e-10 * lam_big


def test_translation_isometry():
    g = centered_grid(24, 0.5)
    d = g.spacing
    cfg3 = SolverConfig(p=3.0)
    lam0 = {}
    for p, cfg in ((2.0, None), (3.0, cfg3)):
        m1 = triangulate(PuncturedDomain(rasterize(Disk((0.0, 0.0), 0.3), g), ()))
        m2 = triangulate(PuncturedDomain(
            rasterize(Disk((4 * d, 2 * d), 0.3), g), ()))
        r1 = solve(m1, cfg or SolverConfig())
        r2 = solve(m2, cfg or SolverConfig())
        assert abs(r1.lam - r2.lam) / r1.lam < 1e-9


def test_axis_reflection_isometry_p2():
    g = centered_grid(24, 0.5)
    m1 = triangulate(PuncturedDomain(rasterize(Disk((0.07, 0.03), 0.3), g), ()))
    m2 = triangulate(PuncturedDomain(rasterize(Disk((-0.07, 0.03), 0.3), g), ()))
    r1, r2 = solve(m1), solve(m2)
    assert abs(r1.lam - r2.lam) / r1.lam < 1e-9


def test_diagonal_reflection_isometry_p3():
    # reflections across 45-degree lines map the fixed-diagonal mesh onto
    # itself, so they are exact for every p
    g = centered_grid(24, 0.5)
    cfg = SolverConfig(p=3.0)
    m1 = triangulate(PuncturedDomain(rasterize(Disk((0.15, 0.05), 0.22), g), ()))
    m2 = triangulate(PuncturedDomain(rasterize(Disk((0.05, 0.15), 0.22), g), ()))
    r1 = solve(m1, cfg)
    r2 = solve(m2, cfg)
    assert abs(r1.lam - r2.lam) / r1.lam < 1e-9


def test_axis_reflection_defect_p3_measured():
    # axis mirrors flip the diagonal orientation; for p != 2 the eigenvalue
    # carries an O(spacing) defect that we measure rather than assert small
    g = centered_grid(24, 0.5)
    cfg = SolverConfig(p=3.0)
    m1 = triangulate(PuncturedDomain(rasterize(Disk((0.07, 0.03), 0.3), g), ()))
    m2 = triangulate(PuncturedDomain(rasterize(Disk((-0.07, 0.03), 0.3), g), ()))
    r1 = solve(m1, cfg)
    r2 = solve(m2, cfg)
    defect = abs(r1.lam - r2.lam) / r1.lam
    assert defect < 0.05  # present but bounded at this resolution
