"""First-eigenpair solver: closed-form oracles, cross-checks, invariances."""

import math

import numpy as np
import pytest
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
from polarlap.discretize import triangulate
from polarlap.eigensolve import (
    EigenResult,
    _Assembler,
    _TwoGrid,
    _mass_normalize,
    _smallest_eigenpair,
    SolverConfig,
    check_weak_form,
    rayleigh,
    solve,
)

from conftest import centered_grid, unit_grid


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
    K = _Assembler(mesh).stiffness()
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
    ("max_outer", 0), ("max_outer", -3), ("max_inner", 0),
])
def test_solver_config_rejects_step_limit_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
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


def test_newton_cg_failure_is_not_converged(monkeypatch):
    # at p > 2 a step counts as converged only if its Newton PCG solves
    # met their rtol as well
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
    res = solve(mesh, SolverConfig(p=1.6, inner_tol=1e-8, max_inner=20000))
    assert res.converged
    _check_result_invariants(mesh, res, 1.6)


# ---------------------------------------------------------------------------
# two-grid preconditioner
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ref_stiffness():
    # unit disk minus a closed r = 0.3 disk, both Dirichlet, spacing 1/64
    g = Grid((-1.03125, -1.03125), 1.0 / 64, 132, 132)
    outer = rasterize(Disk((0.0, 0.0), 1.0), g)
    hole = rasterize(Disk((0.0, 0.0), 0.3, closed=True), g)
    mesh = triangulate(PuncturedDomain(outer, (hole,)))
    return mesh, _Assembler(mesh).stiffness()


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


def test_reweighted_assembly_matches_coo_conversion(rng):
    # the bincount into the fixed CSR slots against a fresh COO -> CSR
    # conversion of the same local blocks
    import scipy.sparse as sp
    mesh = _annulus_mesh(24, bc_inner=NEUMANN)
    asm = _Assembler(mesh)
    T = mesh.tri_nodes.shape[0]
    wts, fac = rng.random(T) + 0.1, rng.random(T)
    q = rng.standard_normal((T, 3))
    local = asm.base_local * wts[:, None, None] + \
        (mesh.area * fac)[:, None, None] * (q[:, :, None] * q[:, None, :])
    fi = mesh.free_index
    rows = fi[np.repeat(mesh.tri_nodes, 3, axis=1).ravel()]
    cols = fi[np.tile(mesh.tri_nodes, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.n_free
    ref = sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                        shape=(n, n)).tocsr()
    K = asm.stiffness(weights=wts, rank_one=(fac, q))
    assert K.has_canonical_format
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.abs(K.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


def test_two_grid_for_matrix_equals_fresh_build(ref_stiffness, rng):
    # a Hessian's cycle built on the Laplacian's aggregates is the cycle
    # built from scratch
    mesh, K = ref_stiffness
    Kh = K + K @ K
    b = rng.standard_normal(mesh.n_free)
    shared = _TwoGrid(mesh, K).for_matrix(Kh)
    assert np.array_equal(shared.matvec(b), _TwoGrid(mesh, Kh).matvec(b))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_no_fine_factor_at_p_ge_2(monkeypatch, p):
    # only coarse two-grid matrices are factored at p >= 2
    import scipy.sparse.linalg as spla
    splu = spla.splu
    rows = []

    def recording(A, *args, **kwargs):
        rows.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    mesh = _annulus_mesh(32)
    res = solve(mesh, SolverConfig(p=p))
    assert res.converged
    assert rows
    assert max(rows) < mesh.n_free // 8


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
