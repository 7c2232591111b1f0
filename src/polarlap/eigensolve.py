"""First eigenpair of the p-Laplacian on a triangulated punctured domain.

One entry point, `solve`, serves every p > 1 and works on free-node
vectors through the flat discretize kernels; the GridFunction is built
once, for the result.

At p = 2 the problem is the symmetric pencil (K, B) of the free-node
stiffness and the lumped mass, solved by single-vector LOBPCG (Knyazev,
SIAM J. Sci. Comput. 23, 2001): each step is a Rayleigh-Ritz on the
iterate, the preconditioned residual and the previous direction.  It stops
when |K x - lam B x|_inf <= outer_tol * lam * |B x|_inf, and outer_iters
counts its steps.  The 3x3 Ritz problem is solved in plain Python: the
first LAPACK eigh call maps about 1.4 MB of library pages, which showed in
a sweep's peak memory.

At p != 2 the driver is Biezuner-Ercole-Martins inverse iteration: each
outer step solves the convex problem min_v energy_p(v)/p - <w, v> with w
the lumped p-force of the previous iterate, takes |v|, renormalizes, and
re-evaluates the Rayleigh quotient.  inner_tol, max_inner and
smoothing_eps apply only here.  A nonlinear analogue of the LOBPCG step
at p = 3 stalled near a 3e-5 residual.

Every symmetric positive definite solve at p >= 2 is preconditioned by a
two-grid smoothed-aggregation cycle (`_TwoGrid`): LOBPCG applies it once
per step, and each p > 2 damped-Newton step runs conjugate gradients on
its Hessian with a cycle built from that Hessian on the same aggregates.
Only the coarse matrix (about 1/16 of the unknowns) is factored; a
resident sparse LU of the 1/64 stiffness raised a p = 2 sweep's peak
memory by 15%, and one fine LU per Newton step was most of a p = 3 solve.
p < 2 factors the stiffness once, because its descent applies it as a
preconditioner on every step and the two-grid there took three times as
long.
"""

from __future__ import annotations

import copy
import math
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
        for name in ("max_outer", "max_inner"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")


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
    """Free-node matrix assembly on the mesh's fixed sparsity pattern.

    The unweighted stiffness is converted to CSR once; every kept local
    entry's slot in that canonical structure is recorded, so each assembly
    is one bincount into the same indices and indptr.
    """

    def __init__(self, M: TriMesh):
        self.M = M
        fi = M.free_index[M.tri_nodes].astype(np.int32)
        r = np.repeat(fi, 3, axis=1).ravel()
        c = np.tile(fi, (1, 3)).ravel()
        del fi
        self.keep = (r >= 0) & (c >= 0)
        rows, cols = r[self.keep], c[self.keep]
        del r, c
        n = M.n_free
        pattern = sp.coo_matrix((np.ones(rows.size, dtype=np.int8),
                                 (rows, cols)), shape=(n, n)).tocsr()
        self.indices, self.indptr = pattern.indices, pattern.indptr
        # a canonical CSR holds each (row, column) once, in increasing order
        pattern.data = np.arange(pattern.nnz, dtype=np.int32)
        self.slots = np.asarray(pattern[rows, cols]).ravel()
        del pattern, rows, cols
        # constant per-triangle local blocks of the quadratic form, built
        # after the index temporaries are gone to keep the set-up peak low
        gx, gy = M.grad_x, M.grad_y
        self.base_local = gx[:, :, None] * gx[:, None, :]
        self.base_local += gy[:, :, None] * gy[:, None, :]
        self.base_local *= M.area

    def stiffness(self, weights=None, rank_one=None) -> sp.csr_matrix:
        """sum_T area w_T (grad phi_i . grad phi_j) [+ q_T q_T^T terms]."""
        local = self.base_local
        if weights is not None:
            local = local * weights[:, None, None]
        if rank_one is not None:
            fac, q = rank_one  # (T,), (T,3)
            qq = q[:, :, None] * q[:, None, :]
            qq *= (self.M.area * fac)[:, None, None]
            qq += local
            local = qq
        n = self.M.n_free
        data = np.bincount(self.slots, weights=local.reshape(-1)[self.keep],
                           minlength=self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


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
        self.P0 = sp.csr_matrix((np.ones(n), (np.arange(n), agg)))
        self._set_matrix(K)

    def _set_matrix(self, K: sp.csr_matrix):
        diag = K.diagonal()
        self.P = self.P0 - sp.diags(2.0 / 3.0 / diag) @ (K @ self.P0)
        self.PT = self.P.T  # a view; transposing per application cost 8%
        self.K = K
        self.jacobi = 0.6 / diag
        self.coarse = spla.splu((self.PT @ (K @ self.P)).tocsc())

    def for_matrix(self, K: sp.csr_matrix) -> "_TwoGrid":
        """The cycle for another matrix on the same free nodes; only the
        aggregates P0 are shared."""
        other = copy.copy(self)
        other._set_matrix(K)
        return other

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


def _smallest_eigenpair(A: list) -> tuple[float, list]:
    """Smallest eigenvalue and a unit eigenvector of a small symmetric
    matrix (nested lists), by cyclic Jacobi rotations in plain Python."""
    k = len(A)
    A = [list(row) for row in A]
    V = [[float(i == j) for j in range(k)] for i in range(k)]
    scale = sum(a * a for row in A for a in row)
    for _ in range(30):
        off = sum(A[i][j] ** 2 for i in range(k) for j in range(i + 1, k))
        if off <= 1e-34 * scale:
            break
        for i in range(k - 1):
            for j in range(i + 1, k):
                if A[i][j] == 0.0:
                    continue
                theta = (A[j][j] - A[i][i]) / (2.0 * A[i][j])
                t = math.copysign(1.0, theta) / (abs(theta) +
                                                 math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for R in (A, V):  # columns i, j of A and V
                    for row in R:
                        row[i], row[j] = c * row[i] - s * row[j], \
                            s * row[i] + c * row[j]
                A[i], A[j] = ([c * a - s * b for a, b in zip(A[i], A[j])],
                              [s * a + c * b for a, b in zip(A[i], A[j])])
    i = min(range(k), key=lambda q: A[q][q])
    return A[i][i], [V[q][i] for q in range(k)]


def _lobpcg(M: TriMesh, T: _TwoGrid, x: np.ndarray, cfg: SolverConfig
            ) -> tuple[np.ndarray, float, float, int, bool]:
    """Single-vector LOBPCG for K x = lam B x (B the lumped mass on the
    free nodes) from the B-unit x, preconditioned by T; returns the last
    iterate, lam, the residual, the number of steps and whether the
    residual bound was met.

    The basis rows x, w = T r and the previous direction d are kept
    B-orthonormal together with their K-images in one preallocated block,
    so a step makes one two-grid application and one product with K, and
    every update is in place.
    """
    K = T.K
    m = M.mass_w[M.free_nodes]
    # Z[i] = (basis vector, its K-image) for x, w and d; Z[3] is scratch.
    # d starts at zero, and a basis vector that orthogonalization reduces
    # to (nearly) nothing is left out of that step's Rayleigh-Ritz.
    Z = np.zeros((4, 2, m.size))
    tmp, bx = Z[3]
    Z[0, 0] = x
    Z[0, 1] = K @ Z[0, 0]

    def b_dot(u, v):
        np.multiply(m, u, out=bx)
        return float(bx @ v)

    def residual():
        """lam of the B-unit x, and r = K x - lam B x in tmp (B x in bx)."""
        x, kx = Z[0]
        lam = float(x @ kx)
        np.multiply(m, x, out=bx)
        np.multiply(bx, -lam, out=tmp)
        np.add(tmp, kx, out=tmp)
        return lam

    def small() -> bool:
        return np.abs(tmp).max() <= cfg.outer_tol * lam * np.abs(bx).max()

    lam = residual()
    iters = 0
    for iters in range(1, cfg.max_outer + 1):
        Z[1, 0] = T.matvec(tmp)
        Z[1, 1] = K @ Z[1, 0]
        basis = [0]
        for i in (1, 2):
            before = math.sqrt(b_dot(Z[i, 0], Z[i, 0]))
            for _ in range(2):  # Gram-Schmidt twice keeps B-orthogonality
                for j in basis:
                    np.multiply(Z[j], b_dot(Z[j, 0], Z[i, 0]), out=Z[3])
                    Z[i] -= Z[3]
            norm = math.sqrt(b_dot(Z[i, 0], Z[i, 0]))
            if norm > 1e-12 * before:
                Z[i] /= norm
                basis.append(i)
        A = [[0.5 * (float(Z[a, 0] @ Z[b, 1]) + float(Z[b, 0] @ Z[a, 1]))
              for b in basis] for a in basis]
        coef = dict(zip(basis, _smallest_eigenpair(A)[1]))
        # d <- the new iterate's part outside x; x <- c_x x + d
        Z[2] *= coef.get(2, 0.0)
        np.multiply(Z[1], coef.get(1, 0.0), out=Z[3])
        Z[2] += Z[3]
        Z[0] *= coef[0]
        Z[0] += Z[2]
        Z[0] /= math.sqrt(b_dot(Z[0, 0], Z[0, 0]))
        lam = residual()
        if small():
            break
    # The result is |x| (the first eigenvector has one sign), judged again
    # on the exact K x: the tracked image drifts by about 1e-12 of
    # lam |B x| over a 1/64 solve, and far more once steps stagnate.
    np.abs(Z[0, 0], out=Z[0, 0])
    Z[0, 1] = K @ Z[0, 0]
    Z[0] /= math.sqrt(b_dot(Z[0, 0], Z[0, 0]))
    lam = residual()
    # the reported residual is the gradient form 2 (K x - lam B x)
    return Z[0, 0].copy(), lam, 2.0 * float(np.abs(tmp).max()), iters, \
        bool(small())


def _mass_normalize(M: TriMesh, free_vals: np.ndarray, p: float) -> np.ndarray:
    m = mass_flat(M, M.embed(free_vals), p)
    if m <= 0.0:
        raise ZeroFunction("cannot normalize the zero function")
    return free_vals / m ** (1.0 / p)


def _solve_inner(M: TriMesh, asm: _Assembler | None,
                 lap: _TwoGrid | spla.SuperLU, w: np.ndarray, x: np.ndarray,
                 first: bool, cfg: SolverConfig) -> tuple[np.ndarray, bool]:
    """Minimize energy_p(v)/p - <w, v> over the free nodes (p != 2);
    returns v and whether every linear solve on the way met its tolerance.

    lap solves with the Laplacian: its two-grid cycle at p > 2, its LU
    factor at p < 2.  Descent starts from the Laplacian solve of w on the
    first outer step (two-grid PCG from x at rtol 1e-12) and from the
    iterate x after that.  p > 2: damped Newton (the Hessian is
    bounded there), floored by smoothing_eps to stay definite on flat
    triangles; each Newton system is solved by PCG at rtol 1e-10 from 0
    with a two-grid built from the Hessian on the Laplacian's aggregates.
    p < 2: preconditioned gradient steps in the p = 2 stiffness metric with
    smoothing_eps guarding the |g|^(p-2) factor; the Hessian is unbounded at
    flat gradients and is never formed.  All steps use Armijo backtracking
    (c = 1e-4, halving).
    """
    p = cfg.p
    if not first:
        v, ok = x, True
    elif p < 2.0:
        v, ok = lap.solve(w), True
    else:
        v, ok = lap.cg(w, x, 1e-12)
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
            d, solved = lap.for_matrix(Kh).cg(-g, None, 1e-10)
            ok = ok and solved
        else:
            d = -lap.solve(g)
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


def _inverse_iteration(M: TriMesh, asm: _Assembler | None,
                       lap: _TwoGrid | spla.SuperLU, x: np.ndarray,
                       cfg: SolverConfig
                       ) -> tuple[np.ndarray, float, float, int, bool]:
    """Inverse iteration from the unit-mass x; returns the last iterate,
    its Rayleigh quotient and residual, the number of outer steps and
    whether it converged.

    Each outer step takes w = m |x|^(p-2) x, solves the inner problem, and
    keeps |v| normalized to unit lumped p-mass; it stops when the Rayleigh
    quotient moves by at most outer_tol relative after a step whose
    linear solves met their tolerances.
    """
    p = cfg.p
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
    return x, lam, float(np.abs(r).max()), iters, converged


def solve(M: TriMesh, cfg: SolverConfig | None = None) -> EigenResult:
    """First eigenpair for every p > 1: LOBPCG at p = 2, inverse iteration
    otherwise.  The result is nonnegative with unit lumped p-mass, and its
    residual is max |grad energy_p - lam grad mass_p| on the free nodes."""
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
    # the Laplacian's LU factor at p < 2, else its two-grid cycle
    lap = spla.splu(K.tocsc()) if p < 2.0 else _TwoGrid(M, K)
    del K
    if p == 2.0:
        x, lam, res, iters, converged = _lobpcg(M, lap, x, cfg)
    else:
        x, lam, res, iters, converged = _inverse_iteration(M, asm, lap, x, cfg)
    return EigenResult(lam, M.function_from_flat(M.embed(x)), iters, res,
                       converged, p)


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
