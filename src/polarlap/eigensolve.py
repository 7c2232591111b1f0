"""First eigenpair of the p-Laplacian on a triangulated punctured domain.

One driver, `solve`, serves every p > 1 (Biezuner-Ercole-Martins inverse
iteration): each outer step solves the convex problem
min_v energy_p(v)/p - <w, v> with w the lumped p-force of the previous
iterate, takes |v|, renormalizes, and re-evaluates the Rayleigh quotient.
At p = 2 the inner problem is one linear solve, so the loop is the classical
inverse power iteration.  The loop runs on free-node vectors through the
flat discretize kernels; the GridFunction is built once, for the result.

Every symmetric positive definite solve at p >= 2 is conjugate gradients
preconditioned by a two-grid smoothed-aggregation cycle (`_TwoGrid`): the
p = 2 Laplacian solves, warm-started from the current iterate, and each
p > 2 damped-Newton step, whose Hessian gets a cycle built from itself.
Only the coarse matrix (about 1/16 of the unknowns) is factored; a resident
sparse LU of the 1/64 stiffness raised a p = 2 sweep's peak memory by 15%,
and one fine LU per Newton step was most of a p = 3 solve.  p < 2 factors
the stiffness once, because its descent applies it as a preconditioner on
every step and the two-grid there took three times as long.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NoFreeNodes, ZeroFunction
from .discretize import (
    TriMesh,
    energy_flat,
    energy_p,
    grad_energy_flat,
    grad_energy_p,
    grad_mass_flat,
    grad_mass_p,
    mass_flat,
    mass_p,
    triangle_gradients,
)
from .rearrange import GridFunction


@dataclass(frozen=True)
class SolverConfig:
    p: float = 2.0
    outer_tol: float = 1e-8
    inner_tol: float = 1e-9
    max_outer: int = 200
    max_inner: int = 5000
    smoothing_eps: float = 1e-10

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        for name in ("outer_tol", "inner_tol", "smoothing_eps"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class EigenResult:
    lam: float
    u: GridFunction
    outer_iters: int
    residual: float
    converged: bool
    p: float = 2.0

    def to_record(self) -> dict:
        return {
            "lambda": self.lam,
            "iterations": self.outer_iters,
            "residual": self.residual,
            "converged": self.converged,
        }


def rayleigh(M: TriMesh, u: GridFunction, p: float) -> float:
    """energy_p(u) / mass_p(u); scale-invariant."""
    flat = M.flat_values(u)
    if M.free_nodes.size == 0 or not np.any(flat[M.free_nodes]):
        raise ZeroFunction("Rayleigh quotient of a function vanishing on free nodes")
    return energy_p(M, u, p) / mass_p(M, u, p)


class _Assembler:
    """Cached index structure for repeated free-node matrix assembly."""

    def __init__(self, M: TriMesh):
        self.M = M
        tn = M.tri_nodes
        rows = np.repeat(tn, 3, axis=1).ravel()
        cols = np.tile(tn, (1, 3)).ravel()
        fi = M.free_index
        r = fi[rows]
        c = fi[cols]
        del rows, cols
        self.keep = (r >= 0) & (c >= 0)
        self.rows = r[self.keep].astype(np.int32)
        self.cols = c[self.keep].astype(np.int32)
        del r, c
        gx, gy = M.grad_x, M.grad_y
        # constant per-triangle local blocks of the quadratic form
        self.base_local = M.area * (gx[:, :, None] * gx[:, None, :] +
                                    gy[:, :, None] * gy[:, None, :])

    def stiffness(self, weights=None, rank_one=None) -> sp.csr_matrix:
        """sum_T area w_T (grad phi_i . grad phi_j) [+ q_T q_T^T terms]."""
        local = self.base_local
        if weights is not None:
            local = local * weights[:, None, None]
        if rank_one is not None:
            fac, q = rank_one  # (T,), (T,3)
            local = local + (self.M.area * fac)[:, None, None] * \
                (q[:, :, None] * q[:, None, :])
        n = self.M.n_free
        K = sp.coo_matrix((local.reshape(-1)[self.keep],
                           (self.rows, self.cols)), shape=(n, n))
        return K.tocsr()


class _TwoGrid(spla.LinearOperator):
    """Symmetric two-grid V(1,1) cycle for an SPD free-node matrix K.

    Smoothed aggregation (Vanek-Mandel-Brezina, Computing 56, 1996) on the
    raster: aggregates are fixed 4x4 blocks of free nodes, the prolongation
    is P = (I - 2/3 D^-1 K) P0, and the Galerkin coarse matrix P^T K P is
    factored once.  One damped-Jacobi sweep (omega = 0.6) runs before and
    one after the coarse correction, so the cycle is symmetric and, as a
    CG preconditioner, positive definite.
    """

    def __init__(self, M: TriMesh, K: sp.csr_matrix):
        super().__init__(K.dtype, K.shape)
        iy, ix = np.divmod(M.free_nodes, M.grid.nx + 1)
        _, agg = np.unique((iy // 4) * (M.grid.nx + 1) + ix // 4,
                           return_inverse=True)
        n = K.shape[0]
        P0 = sp.csr_matrix((np.ones(n), (np.arange(n), agg)))
        diag = K.diagonal()
        KP0 = K @ P0
        self.P = P0 - sp.diags(2.0 / 3.0 / diag) @ KP0
        del P0, KP0
        self.PT = self.P.T  # a view; transposing per application cost 8%
        self.K = K
        self.jacobi = 0.6 / diag
        self.coarse = spla.splu((self.PT @ (K @ self.P)).tocsc())

    def _matvec(self, r):
        r = r.ravel()
        y = self.jacobi * r
        y += self.P @ self.coarse.solve(self.PT @ (r - self.K @ y))
        y += self.jacobi * (r - self.K @ y)
        return y

    def cg(self, b: np.ndarray, x0, rtol: float) -> tuple[np.ndarray, bool]:
        """CG on K y = b from x0 (None: zero) preconditioned by this cycle;
        returns y and whether it met rtol."""
        y, info = spla.cg(self.K, b, x0=x0, rtol=rtol, atol=0.0,
                          maxiter=20 * self.K.shape[0], M=self)
        return y, info == 0


class _Laplacian:
    """Solves with the free-node stiffness K: an LU factor at p < 2, else
    two-grid PCG from x0 at rtol 1e-12, reporting whether it met that
    tolerance."""

    def __init__(self, M: TriMesh, K: sp.csr_matrix, p: float):
        self.lu = spla.splu(K.tocsc()) if p < 2.0 else None
        self.two_grid = _TwoGrid(M, K) if p >= 2.0 else None

    def solve(self, b: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, bool]:
        if self.lu is not None:
            return self.lu.solve(b), True
        return self.two_grid.cg(b, x0, 1e-12)


def _mass_normalize(M: TriMesh, free_vals: np.ndarray, p: float) -> np.ndarray:
    m = mass_flat(M, M.embed(free_vals), p)
    if m <= 0.0:
        raise ZeroFunction("cannot normalize the zero function")
    return free_vals / m ** (1.0 / p)


def _solve_inner(M: TriMesh, asm: _Assembler | None, lap: _Laplacian,
                 w: np.ndarray, x: np.ndarray, first: bool,
                 cfg: SolverConfig) -> tuple[np.ndarray, bool]:
    """Minimize energy_p(v)/p - <w, v> over the free nodes; returns v and
    whether every linear solve on the way met its tolerance.

    p = 2: one linear solve.  Otherwise descent starts from the Laplacian
    solve on the first outer step and from the iterate x after that.
    p > 2: damped Newton (the Hessian is bounded there), floored by
    smoothing_eps to stay definite on flat triangles; each Newton system is
    solved by PCG at rtol 1e-10 from 0 with a two-grid built from the
    Hessian.  p < 2: preconditioned gradient steps in the p = 2 stiffness
    metric with smoothing_eps guarding the |g|^(p-2) factor; the Hessian is
    unbounded at flat gradients and is never formed.  All steps use Armijo
    backtracking (c = 1e-4, halving).
    """
    p = cfg.p
    v, ok = lap.solve(w, x) if p == 2.0 or first else (x, True)
    if p == 2.0:
        return v, ok
    smoothing = cfg.smoothing_eps if p < 2.0 else 0.0

    def fval(vec):
        return energy_flat(M, M.embed(vec), p) / p - float(w @ vec)

    f = fval(v)
    for _ in range(cfg.max_inner):
        flat = M.embed(v)
        g = grad_energy_flat(M, flat, p, smoothing) / p - w
        if np.abs(g).max() < cfg.inner_tol:
            break
        if p > 2.0:
            tgx, tgy = triangle_gradients(M, flat)
            g2 = tgx * tgx + tgy * tgy
            d2 = g2 + max(cfg.smoothing_eps,
                          1e-10 * float(np.sqrt(g2.max(initial=0.0)))) ** 2
            wts = d2 ** (0.5 * p - 1.0)
            fac = (p - 2.0) * d2 ** (0.5 * p - 2.0)
            q = tgx[:, None] * M.grad_x + tgy[:, None] * M.grad_y
            Kh = asm.stiffness(weights=wts, rank_one=(fac, q))
            d, solved = _TwoGrid(M, Kh).cg(-g, None, 1e-10)
            ok = ok and solved
        else:
            d = -lap.lu.solve(g)
        slope = float(g @ d)
        if slope >= 0.0:
            d = -g
            slope = float(g @ d)
        t = 1.0
        for _ in range(60):
            f_new = fval(v + t * d)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        v = v + t * d
        f = f_new
    return v, ok


def solve(M: TriMesh, cfg: SolverConfig | None = None) -> EigenResult:
    """First eigenpair by inverse iteration, for every p > 1.

    Each outer step takes w = m |x|^(p-2) x, solves the inner problem, and
    keeps |v| normalized to unit lumped p-mass; it stops when the Rayleigh
    quotient moves by at most outer_tol relative after a step whose
    linear solves met their tolerances.
    """
    cfg = cfg or SolverConfig()
    if M.n_free == 0:
        raise NoFreeNodes("mesh has no free nodes")
    p = cfg.p
    x = _mass_normalize(M, np.ones(M.n_free), p)
    if M.dirichlet_nodes.size == 0:
        # constants are admissible and the quotient is 0
        u = M.function_from_flat(M.embed(x))
        return EigenResult(0.0, u, 0, 0.0, True, p)
    asm = _Assembler(M)
    K = asm.stiffness()
    if p <= 2.0:
        # only Newton (p > 2) reassembles; holding the index tables through
        # the loop raised a p = 2 sweep's peak memory by 1 MB
        asm = None
    lap = _Laplacian(M, K, p)
    del K
    flat = M.embed(x)
    lam = energy_flat(M, flat, p) / mass_flat(M, flat, p)
    converged = False
    iters = 0
    for iters in range(1, cfg.max_outer + 1):
        w = grad_mass_flat(M, flat, p) / p
        v, ok = _solve_inner(M, asm, lap, w, x, iters == 1, cfg)
        x = _mass_normalize(M, np.abs(v), p)
        flat = M.embed(x)
        lam, lam_old = energy_flat(M, flat, p) / mass_flat(M, flat, p), lam
        if ok and abs(lam - lam_old) <= cfg.outer_tol * abs(lam):
            converged = True
            break
    r = grad_energy_flat(M, flat, p) - lam * grad_mass_flat(M, flat, p)
    return EigenResult(lam, M.function_from_flat(flat), iters,
                       float(np.abs(r).max()), converged, p)


# public names that callers and tests use for the one driver
solve_p = solve_p2 = solve


def check_weak_form(M: TriMesh, r: EigenResult, trial_count: int,
                    seed: int = 0) -> float:
    """Max weak-form defect against random normalized trial functions.

    Each trial vanishes on the Dirichlet nodes and is normalized in the
    lumped 2-norm.  The defect of a trial v is the p-stiffness pairing
    <|grad u|^{p-2} grad u, grad v> minus lam times the lumped mass pairing,
    which equals (grad_energy_p(u) - lam grad_mass_p(u)) . v / p.
    """
    rng = np.random.default_rng(seed)
    g = grad_energy_p(M, r.u, r.p) - r.lam * grad_mass_p(M, r.u, r.p)
    m = M.mass_w[M.free_nodes]
    worst = 0.0
    for _ in range(trial_count):
        v = rng.standard_normal(M.n_free)
        v /= np.sqrt((m * v * v).sum())
        worst = max(worst, abs(float(g @ v)) / r.p)
    return worst
