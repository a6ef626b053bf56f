"""Sparse symmetric quasi-definite solves for the saddle system.

The discrete problem is the bordered system

    [[A, B, 0], [B^T, -S, m], [0, m^T, 0]] [u; p; lam] = [F; G; 0],

whose last row fixes the pressure's constant mode by its zero mean.  The
solver never forms it.  Let c hold the pressure coefficients of the
constant function 1 (``SaddleSystem.c``).  Then B c = 0, and S c = 0
because S sums pressure jumps over interior edges only, where a constant
has none; so [0; c] spans the null space of K = [[A, B], [B^T, -S]].
Dotting the pressure rows with c gives the multiplier in closed form,
lam = c^T G / c^T m, and K [u; p] = [F; G - lam m] is then compatible,
even for a G that is not: lam absorbs the net flux.  Any solution of it is
moved along c to zero mean, p -= (m^T p / m^T c) c.  The dense row and
column of m never enter the factor; with them, SuperLU's numeric factor
took 2-4x as long at the same ordering and fill.

K is Jacobi-equilibrated and the scaled pressure diagonal is shifted by
-DELTA.  With A positive definite and -S - DELTA I negative definite the
matrix is quasi-definite, so it has a stable LDL^T factorization for
every symmetric ordering (Vanderbei 1995, SIAM J. Optim. 5:100).  SuperLU
runs in symmetric mode with minimum degree on K + K^T and a diagonal-pivot
threshold of 0: the pivot sequence follows the pattern alone (barring an
exact zero pivot), so roundoff in the assembled values cannot move the
fill.  Refinement sweeps against the unshifted K remove the shift's error
(static pivots plus refinement, Li & Demmel 1998, SC'98); the direction
c, which the shift turns from null into nearly null, is removed by the
zero-mean step.

The numeric factor is computed in float32, which halves its memory and
cuts the factor time by a third or more; everything else stays in
float64: the residuals, the corrections, the multiplier and the zero-mean
step (mixed-precision refinement, Buttari et al. 2008, ACM TOMS 34:17;
Carson & Higham 2018, SIAM J. Sci. Comput. 40:A817).  DELTA = 1e-6 is
about 8 ulp of the unit pressure diagonal in float32, so the shift
survives the cast (a 1e-8 shift rounds away, and rect n=16, k=3, a=1e4
then needs 9 sweeps to reach the roundoff floor instead of 4).  The sweeps go on while each at least halves the
relative residual of K, up to MAX_SWEEPS, and the iterate with the
smallest residual is kept.  The float32 attempt is accepted only if the
sweeps stagnated before the cap, i.e. reached the roundoff floor, and the
final residual meets the tolerance; otherwise, or on a zero pivot, K is
factored again in float64 and refined by the same rule.  The rule has no
knob and depends on the values alone, so a re-run is bit-identical.

Before the factorization the DOFs are renumbered cell by cell: each
cell's velocity DOFs, then its pressure DOFs.  Minimum degree breaks ties
by the input order, and in the global layout (all velocities, then all
pressures) it breaks them badly on k = 1 triangles: at the same fill, the
factor took 0.071 s instead of 0.048 s at tri n=16, and 0.40 s instead
of 0.31 s at tri n=32 (2-core Xeon, median of seven).  The layout of
``Discretization`` and of the assembled blocks is unchanged; only the
factored copy is permuted.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["Solution", "SolverError", "SingularSystemError", "solve"]

# SuperLU ordering and the shift of the scaled pressure diagonal for every
# factorization in this module, and the cap on refinement sweeps per
# factorization (see the module docstring)
ORDERING = "MMD_AT_PLUS_A"
DELTA = 1e-6
MAX_SWEEPS = 10


class SolverError(Exception):
    """Numerical failure in the linear solve.

    ``stats`` holds what the solve gathered before it failed: ``ordering``,
    ``regularization`` (the shift DELTA) and ``factor_dtype`` (the
    precision of the factor that failed), plus ``nnz_factor`` (stored
    entries of the supernodal factor) and ``refinement_residuals`` when the
    residual check failed, and ``float32_refinement_residuals`` when a
    float32 attempt was abandoned after its refinement.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class SingularSystemError(SolverError):
    """The saddle matrix hit a zero pivot or missed the residual check."""


@dataclass
class Solution:
    """Velocity/pressure coefficients, multiplier, and solve diagnostics.

    ``stats`` holds ``nnz_factor`` (stored entries of the supernodal
    factor), ``ordering``, ``regularization`` (the shift DELTA),
    ``factor_dtype`` (``"float32"``, or ``"float64"`` after a fallback),
    ``refinement_residuals`` (the relative residual of K at each iterate of
    the accepted refinement, then the final one of the constrained system,
    equal to ``residual``), ``float32_refinement_residuals`` (the same
    history of an abandoned float32 attempt, if there was one) and
    ``pressure_mean``.
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
    """SuperLU factor of a symmetric CSC matrix, taking every nonzero
    diagonal pivot."""
    return spla.splu(M, permc_spec=ORDERING, diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _diagnose_singular(system):
    """Attribute a singular factorization to a block, best effort."""
    try:
        _factor(system.A.tocsc())
    except RuntimeError:
        return "velocity block A"
    return "pressure block (B, S)"


def _cell_order(system):
    """DOFs cell by cell: each cell's velocity DOFs, then its pressure DOFs."""
    nc, n_u = system.n_cells, system.n_u
    return np.concatenate(
        [np.arange(n_u).reshape(nc, -1),
         n_u + np.arange(system.n_p).reshape(nc, -1)], axis=1).ravel()


def _shifted_matrix(system, scale, pos):
    """P (D K D - DELTA I_p) P^T in CSC, built from the blocks of K.

    D = diag(scale), I_p is the identity on the pressure DOFs and P moves
    DOF i to position pos[i].
    """
    n_u, n = system.n_u, system.n_u + system.n_p
    A, B, S = system.A.tocoo(), system.B.tocoo(), system.S.tocoo()
    rows = np.concatenate([A.row, B.row, B.col + n_u, S.row + n_u])
    cols = np.concatenate([A.col, B.col + n_u, B.row, S.col + n_u])
    vals = np.concatenate([A.data, B.data, B.data, -S.data])
    vals *= scale[rows] * scale[cols]
    p_diag = pos[n_u:]
    return sp.csc_matrix(
        (np.append(vals, np.full(system.n_p, -DELTA)),
         (np.append(pos[rows], p_diag), np.append(pos[cols], p_diag))),
        shape=(n, n))


def _factor_shifted(system, stats, dtype):
    """Factor in ``dtype`` of the scaled, shifted, cell-ordered K.

    Returns ``apply(r)``, which maps a float64 residual r of K to the
    float64 correction D P^T (P (D K D - DELTA I_p) P^T)^{-1} P D r.
    A zero pivot raises SuperLU's RuntimeError.
    """
    d = np.abs(np.concatenate([system.A.diagonal(), system.S.diagonal()]))
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    perm = _cell_order(system)
    # assembled and summed in float64, rounded once
    K = _shifted_matrix(system, scale, np.argsort(perm)).astype(
        dtype, copy=False)
    try:
        lu = _factor(K)
    except MemoryError as exc:
        raise SolverError(
            f"out of memory factoring K ({K.shape[0]} DOFs, {K.nnz} stored "
            "entries)", stats) from exc
    del K  # the factor holds its own copy
    # the supernodal count; reading lu.L and lu.U would build CSC copies
    stats["nnz_factor"] = int(lu.nnz)

    def apply(r):
        x = np.empty(len(perm))
        x[perm] = lu.solve((scale * r)[perm].astype(dtype, copy=False))
        return scale * x

    return apply


def _residual(system, u, p, g):
    """[F - A u - B p; g - B^T u + S p], from the blocks."""
    return np.concatenate([system.F - system.A @ u - system.B @ p,
                           g - system.B.T @ u + system.S @ p])


def _refine(system, apply, g, rhs_norm, history):
    """Solve K x = [F; g] by ``apply`` and float64 refinement on the blocks.

    Sweeps while each sweep at least halves the relative residual of K, at
    most MAX_SWEEPS times, and keeps the iterate with the smallest one.
    Appends each iterate's residual and then the final one to ``history``.
    Returns the kept iterate's zero-mean (u, p), the final relative
    residual of the constrained system and whether the sweeps stagnated
    before the cap.
    """
    n_u, m, c = system.n_u, system.m, system.c
    x = apply(np.concatenate([system.F, g]))
    for sweep in range(MAX_SWEEPS + 1):
        r = _residual(system, x[:n_u], x[n_u:], g)
        history.append(_relative_norm(r, rhs_norm))
        # a NaN residual compares false and ends the sweeps too
        stagnated = sweep > 0 and not history[-1] < 0.5 * history[-2]
        if stagnated or sweep == MAX_SWEEPS:
            break
        prev, x = x, x + apply(r)
    if stagnated and not history[-1] < history[-2]:
        x = prev
    u, p = x[:n_u], x[n_u:]
    p = p - (float(m @ p) / float(m @ c)) * c
    res = _relative_norm(np.append(_residual(system, u, p, g),
                                   -float(m @ p)), rhs_norm)
    history.append(res)
    return u, p, res, stagnated


def solve(system, rtol=1e-9):
    """Solve the constrained saddle system to a relative residual <= rtol.

    The factor is computed in float32 first and in float64 only when the
    float32 attempt hits a zero pivot or its refinement does not reach
    the roundoff floor (see the module docstring).  Raises
    SingularSystemError, carrying the stats gathered so far, when the
    float64 factorization hits a zero pivot or its residual exceeds rtol,
    and SolverError, naming the DOF count and K's stored entries, when a
    factorization runs out of memory (at once: float64 needs twice the
    memory).
    """
    m, c, G = system.m, system.c, system.G
    stats = {"ordering": f"{ORDERING}/symmetric", "regularization": DELTA}
    lam = float(c @ G) / float(c @ m)
    g = G - lam * m
    rhs_norm = float(np.hypot(np.linalg.norm(system.F), np.linalg.norm(G)))
    for dtype in (np.float32, np.float64):
        last = dtype is np.float64
        stats["factor_dtype"] = np.dtype(dtype).name
        try:
            apply = _factor_shifted(system, stats, dtype)
        except RuntimeError as exc:
            if last:
                raise SingularSystemError(
                    "factorization hit a zero pivot in the "
                    f"{_diagnose_singular(system)}", stats) from exc
            continue
        history = stats["refinement_residuals"] = []
        u, p, res, stagnated = _refine(system, apply, g, rhs_norm, history)
        del apply  # frees the factor before a float64 attempt
        if res <= rtol and (stagnated or last):
            break
        if last:
            raise SingularSystemError(
                f"direct solve residual {res:.3e} exceeds {rtol:.1e}; "
                f"suspect the {_diagnose_singular(system)}", stats)
        stats["float32_refinement_residuals"] = stats.pop(
            "refinement_residuals")
    stats["pressure_mean"] = float(m @ p)
    return Solution(u=u, p=p, multiplier=lam, residual=res, stats=stats)
