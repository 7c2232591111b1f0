"""First eigenpair of the p-Laplacian on a triangulated punctured domain.

One entry point, `solve`, serves every p > 1 and iterates on free-node
vectors; the energies, their gradients, K and each Newton Hessian Kh come
from `discretize`, and A = Kh - lam (p-1) diag(h) shifts a copy of Kh's
values on its diagonal slots (`TriMesh.stencil7.diag`).

At p = 2 the problem is the symmetric pencil (K, B) of the free-node
stiffness and the lumped mass, solved by single-vector LOBPCG (`_lobpcg`;
Knyazev, SIAM J. Sci. Comput. 23, 2001).  Its 3x3 Ritz problem is solved
in plain Python: the first LAPACK eigh call maps about 1.4 MB of library
pages, which showed in a sweep's peak memory.

At p != 2 one driver, `_continuation`, runs Newton on the eigenpair
(`_newton_step`) along an adaptive ladder of exponents from the p = 2
eigenfunction to p.  Every p stops on the same bound,
max|grad E - lam grad M| <= outer_tol * lam * max|grad M| with E =
energy_p and M = mass_p (|K x - lam B x|_inf <= outer_tol lam |B x|_inf
at p = 2).  An inverse-iteration warm-up for Newton spent most of a p = 3
solve, and a nonlinear analogue of the LOBPCG step at p = 3 stalled near
a 3e-5 residual.

Every symmetric positive definite solve, in LOBPCG and in each Newton
step, is preconditioned by a two-grid cycle (`_TwoGrid`), and only coarse
matrices (about 1/16 of the unknowns) are factored, at every p, by a
banded Cholesky (`_band_cholesky`): a resident sparse LU of the 1/64
stiffness raised a p = 2 sweep's peak memory by 15%, one fine LU per
Newton step was most of a p = 3 solve, and a sparse LU of the coarse
matrix took 2-3 ms of a 20 ms Newton step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import NoFreeNodes, ZeroFunction
from .discretize import (
    TriMesh,
    energy_grad_flat,
    energy_p,
    grad_energy_p,
    grad_mass_flat,
    grad_mass_p,
    hessian_flat,
    mass_flat,
    mass_p,
    stiffness_matrix,
)
from .rearrange import GridFunction


@dataclass(frozen=True)
class SolverConfig:
    p: float = 2.0
    outer_tol: float = 1e-8
    max_outer: int = 200

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")
        for name in ("p", "outer_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.max_outer >= 1:
            raise ValueError("max_outer must be at least 1")


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


def _band_cholesky(A: sp.coo_matrix) -> np.ndarray:
    """The Cholesky factor L (A = L L^T) of the symmetric positive definite
    A in LAPACK's lower band storage ab[i - j, j] = L[i, j], kd the
    half-bandwidth read off A's upper triangle, for dpbtrs with lower=1;
    RuntimeError when A is not positive definite.

    In blocks of kd unknowns A is block tridiagonal, and so is U = L^T
    (Golub-Van Loan, Matrix Computations, 4.3): U_kk = chol(A_kk - X^T X)
    with X = U_k-1,k the block above U_kk, and U_k,k+1 = U_kk^-T A_k,k+1.
    dpbtrf computes the same factor, but OpenBLAS runs its level-2 and
    level-3 calls on the library's threads even at this size, and on two
    cores those threads then contend with numpy's own for the rest of a
    solve (a p = 3 solve at 1/64 ran 2x slower); dpotrf and dtrtri on one
    block, and numpy's products, stay on the calling thread.
    """
    upper = A.row <= A.col
    i, j = A.row[upper], A.col[upper]
    n = A.shape[0]
    kd = max(int((j - i).max()), 1)
    m = -(-n // kd)
    # row block k of U is W[k] = [U_kk, U_k,k+1]; A's blocks are read into
    # the same places, and the unknowns past n that fill the last block are
    # decoupled, with diagonal 1
    W = np.zeros((m, kd, 2 * kd))
    pad = np.arange(n, m * kd) - (m - 1) * kd
    W[-1, pad, pad] = 1.0
    W[i // kd, i % kd, j % kd + kd * (j // kd - i // kd)] = A.data[upper]
    X = np.zeros((kd, kd))
    for k in range(m):
        U, info = lapack.dpotrf(W[k, :, :kd] - X.T @ X)
        if info != 0:
            raise RuntimeError("two-grid coarse matrix is not positive "
                               "definite")
        W[k, :, :kd] = U
        X = lapack.dtrtri(U)[0].T @ W[k, :, kd:]
        W[k, :, kd:] = X
    # column i of L is row i of U from its diagonal on: W[k, r, r:r + kd + 1]
    step = W.strides[2]
    rows = np.lib.stride_tricks.as_strided(
        W, (m, kd, kd + 1), (W.strides[0], W.strides[1] + step, step))
    return rows.reshape(m * kd, kd + 1)[:n].T


class _TwoGrid(spla.LinearOperator):
    """Symmetric two-grid V(1,1) cycle for an SPD free-node matrix K.

    Smoothed aggregation (Vanek-Mandel-Brezina, Computing 56, 1996) on the
    raster: aggregates are fixed 4x4 blocks of free nodes in row-major
    order, and the prolongation is P = (I - 2/3 D^-1 K) P0 with sorted
    column indices, so the cycle depends on K's values only, not on the
    exact zeros K stores.  The Galerkin coarse matrix P^T K P couples an
    aggregate with the next row of aggregates at most, so in that order it
    is banded (half-bandwidth 32 on the 776 aggregates of the 1/64
    reference annulus); it is factored once by `_band_cholesky` and each
    coarse solve is LAPACK's banded dpbtrs.  One damped-Jacobi sweep
    (omega = 0.6) runs before and one after the coarse correction, so the
    cycle is symmetric and, as a CG preconditioner, positive definite.  A
    diagonal entry of K that is not positive, or a coarse matrix that is
    not positive definite, raises RuntimeError.
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
        if not diag.min() > 0.0:
            raise RuntimeError("two-grid needs a positive diagonal")
        self.P = self.P0 - sp.diags(2.0 / 3.0 / diag) @ (K @ self.P0)
        self.P.sort_indices()
        self.PT = self.P.T  # a view; transposing per application cost 8%
        self.K = K
        self.jacobi = 0.6 / diag
        self.coarse = _band_cholesky((self.PT @ (K @ self.P)).tocoo())

    def for_matrix(self, K: sp.csr_matrix) -> "_TwoGrid":
        """The cycle for another matrix on the same free nodes; only the
        aggregates P0 are shared."""
        other = copy.copy(self)
        other._set_matrix(K)
        return other

    def coarse_solve(self, b: np.ndarray) -> np.ndarray:
        """(P^T K P)^-1 b from the banded factor."""
        return lapack.dpbtrs(self.coarse, b, lower=1)[0]

    def _matvec(self, r):
        r = r.ravel()
        y = self.jacobi * r
        y += self.P @ self.coarse_solve(self.PT @ (r - self.K @ y))
        y += self.jacobi * (r - self.K @ y)
        return y


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


def _lobpcg(M: TriMesh, T: _TwoGrid, x: np.ndarray, tol: float,
            max_steps: int) -> tuple[np.ndarray, float, float, int, bool]:
    """Single-vector LOBPCG for K x = lam B x (B the lumped mass on the
    free nodes) from the B-unit x, preconditioned by T, for at most
    max_steps steps; returns the last iterate, lam, the residual, the
    number of steps and whether |K x - lam B x|_inf <= tol lam |B x|_inf.

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
        return np.abs(tmp).max() <= tol * lam * np.abs(bx).max()

    lam = residual()
    iters = 0
    for iters in range(1, max_steps + 1):
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
    """free_vals scaled to unit lumped p-mass.  It is first scaled to
    max|v| = 1, so the mass lies between the smallest lumped weight and the
    domain's area and neither overflows nor underflows at any finite p."""
    top = float(np.abs(free_vals).max(initial=0.0))
    if not top > 0.0:
        raise ZeroFunction("cannot normalize the zero function")
    v = free_vals / top
    return v / mass_flat(M, M.embed(v), p) ** (1.0 / p)


def _newton_step(M: TriMesh, T: _TwoGrid, x: np.ndarray, lam: float,
                 r: np.ndarray, p: float) -> np.ndarray | None:
    """One Newton step on the eigenpair from the unit-mass iterate x with
    Rayleigh quotient lam and residual r = grad E - lam grad M (p != 2):
    the new iterate |x + t| at unit mass, or None when the solve for t
    fails.

    t solves the Jacobi-Davidson correction equation (Sleijpen-van der
    Vorst, SIAM J. Matrix Anal. Appl. 17, 1996) on the unit-mass sphere by
    projected PCG as in JDCG (Notay, Numer. Linear Algebra Appl. 9, 2002):
    with g = grad M / p, Q = I - x g^T / (g^T x) and
    A = Kh - lam (p-1) diag(m |x|^(p-2)), Kh the floored Hessian of E/p,
    it solves Q^T A Q t = -r/p on {g^T t = 0} at rtol 1e-2 in at most 100
    iterations.  x^T r = 0 at the Rayleigh quotient, so the right-hand side
    lies in the range of Q^T.  The preconditioner is the two-grid C of Kh
    projected the same way, z = C y - C g (g^T C y) / (g^T C g).  A
    annihilates an eigenfunction and is positive semidefinite on
    {g^T t = 0} at a minimizer of the quotient, but can be indefinite away
    from one, so a solve that misses its tolerance or ends on nonpositive
    curvature t^T Q^T A Q t <= 0 fails, as does a Hessian whose two-grid
    cannot be built (a diagonal entry that is not positive, or a coarse
    matrix that is not positive definite).
    """
    flat = M.embed(x)
    g = grad_mass_flat(M, flat, p) / p
    h = np.zeros_like(x)  # m |x|^(p-2): the Hessian of M/p is (p-1) diag(h)
    np.divide(g, x, out=h, where=x != 0.0)
    Kh = hessian_flat(M, flat, p)
    shifted = Kh.data.copy()
    shifted[M.stencil7.diag] -= lam * (p - 1.0) * h
    A = sp.csr_matrix((shifted, Kh.indices, Kh.indptr), shape=Kh.shape)
    gx = float(g @ x)

    def op(t):
        t = t.ravel()
        y = A @ (t - x * (float(g @ t) / gx))
        return y - g * (float(x @ y) / gx)

    try:
        C = T.for_matrix(Kh)
    except RuntimeError:  # weights that underflow leave Kh singular
        return None
    Cg = C.matvec(g)
    gCg = float(g @ Cg)

    def prec(y):
        z = C.matvec(y)
        return z - Cg * (float(g @ z) / gCg)

    n = x.size
    t, info = spla.cg(spla.LinearOperator((n, n), matvec=op, dtype=float),
                      -r / p, rtol=1e-2, atol=0.0, maxiter=100,
                      M=spla.LinearOperator((n, n), matvec=prec, dtype=float))
    if info != 0 or not float(t @ op(t)) > 0.0:
        return None
    return _mass_normalize(M, np.abs(x + t), p)


# The exponent ladder of `_continuation`: its first p-step, the res_rel that
# ends a stage short of p and the LOBPCG start, and the window of Newton
# steps over which a stage must lower res_rel and within which an easy stage
# ends (Newton judged by its observed contraction: Deuflhard, Newton Methods
# for Nonlinear Problems, 2004, ch. 5).
_P_STEP = 0.5
_STAGE_TOL = 1e-4
_WINDOW = 3


def _evaluate(M: TriMesh, x: np.ndarray, p: float
              ) -> tuple[float, np.ndarray, float]:
    """lam, r = grad E - lam grad M and
    res_rel = max|r| / (lam max|grad M|) of the unit-mass x at exponent p;
    res_rel is a numpy float, so an energy that underflows to lam = 0 gives
    a non-finite res_rel rather than an exception."""
    flat = M.embed(x)
    gm = grad_mass_flat(M, flat, p)
    energy, ge = energy_grad_flat(M, flat, p)
    lam = energy / mass_flat(M, flat, p)
    r = ge - lam * gm
    return lam, r, np.abs(r).max() / (lam * np.abs(gm).max())


def _continuation(M: TriMesh, T: _TwoGrid, x: np.ndarray, cfg: SolverConfig
                  ) -> tuple[np.ndarray, float, float, int, bool]:
    """The p != 2 eigenpair from the constant x by continuation in the
    exponent from the p = 2 eigenfunction (Allgower-Georg, Numerical
    Continuation Methods, 1990); returns the last iterate, its Rayleigh
    quotient and residual at p, the number of steps and whether it
    converged.

    LOBPCG gives the p = 2 eigenfunction to res_rel 1e-4.  Each stage then
    moves the exponent from the last accepted q toward p by the p-step,
    renormalizes that iterate to unit q-mass and runs `_newton_step`; a
    step is kept when it lowers res_rel or the Rayleigh quotient.  A stage
    short of p ends at res_rel <= 1e-4, the stage at p on the solve's bound
    res_rel = max|grad E - lam grad M| / (lam max|grad M|) <= outer_tol.
    A stage fails when a step fails or is refused, when its lam or res_rel
    is not finite (the step is refused before a Hessian is built), or when
    res_rel after step k >= 3 is not below that after step k - 3; it then
    restarts from the last accepted iterate with half the p-step.  A stage
    done within 3 steps doubles the p-step, which starts at 0.5.  LOBPCG and
    Newton steps, kept or not, count in outer_iters, and the solve ends
    unconverged after max_outer.  Energies that overflow at large p only
    fail stages, so floating-point warnings are silenced here.
    """
    p = cfg.p
    x, _, _, iters, _ = _lobpcg(M, T, _mass_normalize(M, x, 2.0),
                                _STAGE_TOL, cfg.max_outer)
    done, step = 2.0, math.copysign(_P_STEP, p - 2.0)
    with np.errstate(all="ignore"):
        while True:
            q = p if abs(p - done) <= abs(step) else done + step
            tol = cfg.outer_tol if q == p else _STAGE_TOL
            y = _mass_normalize(M, x, q)
            lam, r, res = _evaluate(M, y, q)
            hist = [res]  # res_rel at the start and after each kept step
            while not res <= tol and iters < cfg.max_outer \
                    and (len(hist) <= _WINDOW or res < hist[-1 - _WINDOW]):
                iters += 1
                y_new = _newton_step(M, T, y, lam, r, q) \
                    if math.isfinite(lam) and math.isfinite(res) else None
                trial = None if y_new is None else _evaluate(M, y_new, q)
                if trial is None or not (trial[2] < res or trial[0] < lam):
                    break
                y, (lam, r, res) = y_new, trial
                hist.append(res)
            if res <= tol and q == p:
                return y, lam, float(np.abs(r).max()), iters, True
            if iters == cfg.max_outer:
                if q != p:
                    y = _mass_normalize(M, y, p)
                    lam, r, res = _evaluate(M, y, p)
                return y, lam, float(np.abs(r).max()), iters, False
            if res <= tol:
                x, done = y, q
                if len(hist) <= _WINDOW + 1:
                    step *= 2.0
            else:
                step = 0.5 * (q - done)


def solve(M: TriMesh, cfg: SolverConfig | None = None) -> EigenResult:
    """First eigenpair for every p > 1: LOBPCG at p = 2, continuation in p
    from the p = 2 eigenfunction with Newton on the eigenpair otherwise
    (`_continuation`).  Either converges when
    max |grad energy_p - lam grad mass_p| <= outer_tol lam max |grad mass_p|
    on the free nodes, and ends unconverged after max_outer steps.  The
    result is nonnegative with unit lumped p-mass, and its residual is
    max |grad energy_p - lam grad mass_p| on the free nodes."""
    cfg = cfg or SolverConfig()
    if M.n_free == 0:
        raise NoFreeNodes("mesh has no free nodes")
    p = cfg.p
    x = _mass_normalize(M, np.ones(M.n_free), p)
    if M.dirichlet_nodes.size == 0:
        # constants are admissible and the quotient is 0
        u = M.function_from_flat(M.embed(x))
        return EigenResult(0.0, u, 0, 0.0, True, p)
    T = _TwoGrid(M, stiffness_matrix(M))
    if p == 2.0:
        x, lam, res, iters, converged = _lobpcg(M, T, x, cfg.outer_tol,
                                                cfg.max_outer)
    else:
        x, lam, res, iters, converged = _continuation(M, T, x, cfg)
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
