"""Sparse symmetric indefinite solves for the saddle system.

SuperLU direct factorization in symmetric mode.  The matrix
[[A, B, 0], [B^T, -S, m], [0, m^T, 0]] is symmetric, so the fill-
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
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["Solution", "SolverError", "SingularSystemError", "solve"]

# SuperLU settings for every factorization in this module (see the module
# docstring for the choice of threshold)
ORDERING = "MMD_AT_PLUS_A"
PIVOT_THRESHOLD = 0.01


class SolverError(Exception):
    """Numerical failure in the linear solve.

    ``stats`` holds what the solve gathered before it failed: ``ordering``
    and ``pivot_threshold``, plus ``nnz_factor`` and
    ``refinement_residuals`` when the residual check failed.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class SingularSystemError(SolverError):
    """The saddle matrix hit a zero pivot or missed the residual check."""


@dataclass
class Solution:
    """Velocity/pressure coefficients, multiplier, and solve diagnostics.

    ``stats`` holds ``nnz_factor`` (entries of L + U),
    ``ordering``, ``pivot_threshold`` and ``refinement_residuals`` (the
    relative residual before each of the two refinement sweeps, then the
    final one, equal to ``residual``) and ``pressure_mean``.
    """

    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float
    stats: dict = field(default_factory=dict)


def _relative_norm(r, rhs_norm):
    """|r| / |rhs|, or |r| itself for a zero right-hand side."""
    nrm = float(np.linalg.norm(r))
    return nrm if rhs_norm == 0.0 else nrm / rhs_norm


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
    stats = {"ordering": f"{ORDERING}/symmetric",
             "pivot_threshold": PIVOT_THRESHOLD}
    d = np.abs(M.diagonal())
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    Ms = (sp.diags(scale) @ M @ sp.diags(scale)).tocsc()
    try:
        lu = _factor(Ms)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"factorization hit a zero pivot in the {_diagnose_singular(system)}",
            stats) from exc
    stats["nnz_factor"] = int(lu.L.nnz + lu.U.nnz)
    x = scale * lu.solve(scale * rhs)
    rhs_norm = np.linalg.norm(rhs)
    # relative residual before each refinement sweep, then the final one
    history = stats["refinement_residuals"] = []
    for sweep in range(3):
        r = rhs - M @ x
        history.append(_relative_norm(r, rhs_norm))
        if sweep < 2:
            x = x + scale * lu.solve(scale * r)
    res = history[-1]
    if not np.isfinite(res) or res > rtol:
        raise SingularSystemError(
            f"direct solve residual {res:.3e} exceeds {rtol:.1e}; "
            f"suspect the {_diagnose_singular(system)}", stats)
    return x, res, stats


def solve(system, rtol=1e-9):
    """Solve the constrained saddle system to a relative residual <= rtol.

    Raises SingularSystemError, carrying the stats gathered so far, when
    the factorization hits a zero pivot or the residual exceeds rtol.
    """
    M = system.matrix(constrained=True)
    rhs = system.rhs(constrained=True)
    x, res, stats = _solve_direct(system, M, rhs, rtol)
    n_u, n_p = system.n_u, system.n_p
    u = x[:n_u]
    p = x[n_u:n_u + n_p]
    lam = float(x[-1])
    stats["pressure_mean"] = float(system.m @ p)
    return Solution(u=u, p=p, multiplier=lam, residual=res, stats=stats)
