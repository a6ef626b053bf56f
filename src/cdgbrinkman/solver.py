"""Sparse symmetric indefinite solves for the saddle system.

Default backend: SuperLU direct factorization in symmetric mode.  The
matrix [[A, B, 0], [B^T, -S, m], [0, m^T, 0]] is symmetric, so the fill-
reducing ordering is minimum degree on the pattern of M + M^T, applied to
rows and columns alike, and SuperLU prefers the diagonal pivot.  That
roughly halves the factor fill of a general-mode COLAMD ordering, which
permutes columns only and pivots for stability across the whole column.
The diagonal-pivot threshold is neither 0 nor 1.  At 0 SuperLU accepts
any nonzero diagonal pivot however small, the factor's entries can grow
without bound, and on the Darcy case (rect n=16, k=3, a=1e4) refinement
ends at a relative residual of 2.6.  At 1 (SuperLU's default) the
diagonal is kept only when it is the largest entry of its column, so row
interchanges undo the symmetric ordering: fill rises to 16.2 M against
COLAMD's 11.9 M and this mode's 5.7 M at 0.01.  Thresholds 1e-3 and 1e-1
give 5.3 M and 7.8 M there, with residuals near 5e-16; 0.01 keeps a
margin of stability over 1e-3 at little cost in fill.  The matrix is
Jacobi-equilibrated before the factorization, and the solution is refined
by two sweeps.

Fallback backend: MINRES with an SPD block-Jacobi preconditioner built
from per-cell velocity blocks, the pressure mass plus stabilizer diagonal
blocks, and a unit multiplier block.  Backends agree to the requested
residual tolerance.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

__all__ = ["Solution", "SolverError", "SingularSystemError", "solve"]

# SuperLU settings for every factorization in this module (see the module
# docstring for the choice of threshold)
ORDERING = "MMD_AT_PLUS_A"
PIVOT_THRESHOLD = 0.01


class SolverError(Exception):
    """Numerical failure in the linear solve."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


class SingularSystemError(SolverError):
    """The saddle matrix factored with a zero pivot."""


@dataclass
class Solution:
    """Velocity/pressure coefficients, multiplier, and solve diagnostics.

    ``stats`` of a direct solve holds ``nnz_factor`` (entries of L + U),
    ``ordering``, ``pivot_threshold`` and ``refinement_residuals`` (the
    relative residual before each of the two refinement sweeps, then the
    final one, equal to ``residual``); every solve adds ``pressure_mean``.
    """

    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float
    method: str
    stats: dict = field(default_factory=dict)


def _relative_norm(r, rhs_norm):
    """|r| / |rhs|, or |r| itself for a zero right-hand side."""
    nrm = float(np.linalg.norm(r))
    return nrm if rhs_norm == 0.0 else nrm / rhs_norm


def _relative_residual(M, x, rhs):
    return _relative_norm(M @ x - rhs, np.linalg.norm(rhs))


def _factor(M):
    """SuperLU factor of a symmetric CSC matrix in symmetric mode."""
    return spla.splu(M, permc_spec=ORDERING,
                     diag_pivot_thresh=PIVOT_THRESHOLD,
                     options={"SymmetricMode": True})


def _diagnose_singular(system):
    """Attribute a singular factorization to a block, best effort."""
    try:
        _factor(system.A.tocsc())
    except RuntimeError:
        return "velocity block A"
    return "pressure/multiplier block (zero-mean constraint missing?)"


def _solve_direct(system, M, rhs, rtol):
    # symmetric Jacobi equilibration plus two refinement sweeps keeps the
    # forward error near roundoff even for high-degree target bases
    d = np.abs(M.diagonal())
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    Ms = (sp.diags(scale) @ M @ sp.diags(scale)).tocsc()
    try:
        lu = _factor(Ms)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization hit a zero pivot in the {_diagnose_singular(system)}"
        ) from exc
    x = scale * lu.solve(scale * rhs)
    rhs_norm = np.linalg.norm(rhs)
    # relative residual before each refinement sweep, then the final one
    history = []
    for sweep in range(3):
        r = rhs - M @ x
        history.append(_relative_norm(r, rhs_norm))
        if sweep < 2:
            x = x + scale * lu.solve(scale * r)
    res = history[-1]
    if not np.isfinite(res) or res > rtol:
        raise SingularSystemError(
            f"direct solve residual {res:.3e} exceeds {rtol:.1e}; "
            f"suspect the {_diagnose_singular(system)}")
    return x, res, {"nnz_factor": int(lu.L.nnz + lu.U.nnz),
                    "ordering": f"{ORDERING}/symmetric",
                    "pivot_threshold": PIVOT_THRESHOLD,
                    "refinement_residuals": history}


def _block_jacobi_preconditioner(system, disc):
    """SPD per-cell preconditioner: A blocks, pressure mass + S diagonal, 1."""
    n_u, n_p = system.n_u, system.n_p
    A = system.A.tocsc()
    S = system.S.tocsc()
    factors = []
    slices = []
    for c in range(disc.mesh.n_cells):
        s0 = disc.velocity_slice(c, 0)
        sl = slice(s0.start, s0.start + 2 * disc.dim_k)
        blk = A[sl, sl].toarray()
        factors.append(cho_factor(blk, lower=True))
        slices.append(sl)
    pfactors = []
    pslices = []
    for c in range(disc.mesh.n_cells):
        sl = disc.pressure_slice(c)
        ctx = disc.contexts[c]
        blk = ctx.block_p.gram + S[sl, sl].toarray()
        pfactors.append(cho_factor(blk, lower=True))
        pslices.append(sl)

    def apply(r):
        out = np.empty_like(r)
        for sl, f in zip(slices, factors):
            out[sl] = cho_solve(f, r[sl])
        for sl, f in zip(pslices, pfactors):
            off = slice(n_u + sl.start, n_u + sl.stop)
            out[off] = cho_solve(f, r[off])
        out[n_u + n_p:] = r[n_u + n_p:]
        return out

    n = n_u + n_p + 1
    return spla.LinearOperator((n, n), matvec=apply)


def _solve_krylov(system, M, rhs, rtol, disc, maxiter):
    if disc is None:
        raise ValueError("krylov backend needs the discretization for its "
                         "block preconditioner")
    precond = _block_jacobi_preconditioner(system, disc)
    history = []
    rhs_norm = np.linalg.norm(rhs)

    def callback(xk):
        history.append(_relative_residual(M, xk, rhs))

    # tighten the iteration tolerance; the true residual is checked below
    x, info = spla.minres(M, rhs, M=precond, rtol=min(rtol * 1e-2, 1e-10),
                          maxiter=maxiter, callback=callback)
    res = _relative_residual(M, x, rhs)
    if rhs_norm == 0.0 and res == 0.0:
        return x, res, {"iterations": len(history)}
    if res > rtol:
        raise SolverError(
            f"MINRES stalled at relative residual {res:.3e} "
            f"(target {rtol:.1e}, {len(history)} iterations)",
            residual_history=history)
    return x, res, {"iterations": len(history)}


def solve(system, method="direct", rtol=1e-9, disc=None, maxiter=None):
    """Solve the constrained saddle system to a relative residual <= rtol.

    Parameters
    ----------
    system : SaddleSystem
    method : "direct" (SuperLU) or "krylov" (preconditioned MINRES)
    disc : Discretization, required by the krylov backend
    """
    M = system.matrix(constrained=True)
    rhs = system.rhs(constrained=True)
    if method == "direct":
        x, res, stats = _solve_direct(system, M, rhs, rtol)
    elif method == "krylov":
        if maxiter is None:
            maxiter = 50 * M.shape[0]
        x, res, stats = _solve_krylov(system, M, rhs, rtol, disc, maxiter)
    else:
        raise ValueError(f"unknown solver method {method!r}")
    n_u, n_p = system.n_u, system.n_p
    u = x[:n_u]
    p = x[n_u:n_u + n_p]
    lam = float(x[-1])
    stats["pressure_mean"] = float(system.m @ p)
    return Solution(u=u, p=p, multiplier=lam, residual=res, method=method,
                    stats=stats)
