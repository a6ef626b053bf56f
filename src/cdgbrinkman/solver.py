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

K is Jacobi-equilibrated, and each scaled pressure diagonal entry is
shifted by -DELTA max(1, b_i), b_i the squared norm of its scaled column of
B.  With A positive definite and -S - shift negative definite the matrix is
quasi-definite, so it has a stable LDL^T factorization for every symmetric
ordering (Vanderbei 1995, SIAM J. Optim. 5:100).  SuperLU runs in
symmetric mode with minimum degree on K + K^T and a diagonal-pivot
threshold of 0, so the pivot sequence follows the pattern alone (barring
an exact zero pivot) and roundoff in the values cannot move the fill.  A
pressure eliminated before its velocities leaves entries of about b_i /
shift in the factor, which the max(1, b_i) keeps below 1/DELTA: with a
shift of DELTA alone, k = 3 at mu = 1e-3, a = 1 (b_i near 25) gave entries
of 1e7, and the float32 solve missed by more than the residual itself.

K is factored once, in float32, which halves the factor's memory and cuts
its time by a third or more; the residuals, corrections, multiplier and
zero-mean step stay in float64.  DELTA = 1e-6 is about 8 ulp of a unit
diagonal in float32, so the shift survives the cast.  Each refinement
sweep against the unshifted K (static pivots plus refinement, Li & Demmel
1998, SC'98) solves K d = r for its correction by right-preconditioned
GMRES, the preconditioner being the float32 solve followed by the
zero-mean step, which removes the direction c that the shift turns from
null into nearly null.  GMRES stops once its Arnoldi residual estimate
falls to INNER_RTOL |r| (GMRES-based refinement, Carson & Higham 2018,
SIAM J. Sci. Comput. 40:A817; flexible GMRES, Arioli & Duff 2009, ETNA
33:31): one step on every benchmark input, 1 to 13 at mu = 1e-3, k = 3.
The sweeps go on while each at least halves the relative residual of K, up
to MAX_SWEEPS, and keep the iterate with the smallest; a single GMRES run
instead left p at rect n=16, k=3, a=1e4 at best 5e-12 from an
extended-precision reference, the sweeps 1.1e-12.  The rules depend on the
values alone, so a re-run is bit-identical.

The factored copy numbers the DOFs cell by cell, velocities first:
minimum degree breaks ties by the input order, and in the global layout
it broke them badly on k = 1 triangles (at the same fill, 0.071 s instead
of 0.048 s at tri n=16; 2-core Xeon, median of seven).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["Solution", "SolverError", "SingularSystemError", "solve"]

# SuperLU ordering, the least shift of the scaled pressure diagonal, the
# cap on refinement sweeps, and each sweep's GMRES tolerance relative to
# the sweep's residual and its step cap (see the module docstring)
ORDERING = "MMD_AT_PLUS_A"
DELTA = 1e-6
MAX_SWEEPS = 10
INNER_RTOL = 1e-2
MAX_INNER = 30


class SolverError(Exception):
    """Numerical failure in the linear solve.

    ``stats`` holds the ``Solution`` stats gathered before the failure.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class SingularSystemError(SolverError):
    """The saddle matrix hit a zero pivot or missed the residual check."""


@dataclass
class Solution:
    """Velocity/pressure coefficients, multiplier, and solve diagnostics.

    ``stats`` holds ``nnz_factor`` (stored entries of the float32 factor),
    ``ordering``, ``regularization`` (DELTA), ``refinement_residuals`` (the
    relative residual of K at each iterate, then the constrained system's
    final one, ``residual``), ``inner_iterations`` (the GMRES steps that
    made each iterate) and ``pressure_mean``.
    """

    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float
    stats: dict = field(default_factory=dict)


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


def _factor_shifted(system, stats):
    """Float32 factor of the scaled, shifted, cell-ordered K.

    Returns ``apply(r)``, which maps a float64 residual r of K to the
    float64 correction D P^T (P (D K D - E) P^T)^{-1} P D r, with D the
    Jacobi scaling, E the pressure shift and P the cell-by-cell numbering.
    A zero pivot raises SuperLU's RuntimeError.
    """
    n_u, n_p, nc = system.n_u, system.n_p, system.n_cells
    d = np.abs(np.concatenate([system.A.diagonal(), system.S.diagonal()]))
    d[d == 0.0] = 1.0
    scale = 1.0 / np.sqrt(d)
    perm = np.concatenate([np.arange(n_u).reshape(nc, -1),
                           n_u + np.arange(n_p).reshape(nc, -1)],
                          axis=1).ravel()
    A, B, S = system.A.tocoo(), system.B.tocoo(), system.S.tocoo()
    rows = np.concatenate([A.row, B.row, B.col + n_u, S.row + n_u])
    cols = np.concatenate([A.col, B.col + n_u, B.row, S.col + n_u])
    vals = np.concatenate([A.data, B.data, B.data, -S.data])
    vals *= scale[rows] * scale[cols]
    coupling = np.bincount(B.col, vals[A.nnz:A.nnz + B.nnz] ** 2, n_p)
    diag, pos = n_u + np.arange(n_p), np.argsort(perm)
    # assembled and summed in float64, rounded once
    K = sp.csc_matrix(
        (np.append(vals, -DELTA * np.maximum(1.0, coupling)),
         (pos[np.append(rows, diag)], pos[np.append(cols, diag)])),
        shape=(n_u + n_p, n_u + n_p)).astype(np.float32, copy=False)
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
        x[perm] = lu.solve((scale * r)[perm].astype(np.float32))
        return scale * x

    return apply


def _matvec(system, x):
    """K x, from the blocks."""
    u, p = x[:system.n_u], x[system.n_u:]
    return np.concatenate([system.A @ u + system.B @ p,
                           system.B.T @ u - system.S @ p])


def _zero_mean(system, x):
    """x moved along [0; c] to zero pressure mean m^T p, in place."""
    p = x[system.n_u:]
    p -= (float(system.m @ p) / float(system.m @ system.c)) * system.c
    return x


def _gmres(system, apply, r):
    """A correction d with |r - K d| <= INNER_RTOL |r|, and its step count,
    by right-preconditioned GMRES from d = 0 that keeps the preconditioned
    vectors (flexible GMRES)."""
    # K d is orthogonal to [0; c] = [0; m]: r's roundoff along it is dropped
    r = _zero_mean(system, r.copy())
    beta = float(np.linalg.norm(r))
    if beta == 0.0:
        return r, 0
    V, Z, H = [r / beta], [], np.zeros((MAX_INNER + 1, MAX_INNER))
    for j in range(MAX_INNER):
        Z.append(_zero_mean(system, apply(V[j])))
        w = _matvec(system, Z[j])
        for i, v in enumerate(V):  # modified Gram-Schmidt
            H[i, j] = v @ w
            w -= H[i, j] * v
        H[j + 1, j] = np.linalg.norm(w)
        # min |beta e_1 - H y| by a QR factorization of the Hessenberg H;
        # a NaN estimate compares false and ends the steps too
        q, R = np.linalg.qr(H[:j + 2, :j + 1], mode="complete")
        if not abs(q[0, j + 1]) > INNER_RTOL:
            break
        V.append(w / H[j + 1, j])
    y = np.linalg.solve(R[:j + 1], beta * q[0, :j + 1])
    return np.dot(y, Z), j + 1


def _refine(system, apply, g, rhs_norm, stats):
    """Zero-mean (u, p) with K [u; p] = [F; g] by refinement sweeps, and
    the constrained system's final residual; records the sweeps' stats."""
    rhs = np.concatenate([system.F, g])
    history = stats["refinement_residuals"] = []
    inner = stats["inner_iterations"] = []
    x, r = np.zeros(len(rhs)), rhs
    for _ in range(MAX_SWEEPS + 1):
        d, steps = _gmres(system, apply, r)
        inner.append(steps)
        prev, x = x, x + d
        r = rhs - _matvec(system, x)
        history.append(float(np.linalg.norm(r)) / rhs_norm)
        # a NaN residual compares false and ends the sweeps too
        if len(history) > 1 and not history[-1] < 0.5 * history[-2]:
            if not history[-1] < history[-2]:
                x = prev
            break
    x = _zero_mean(system, x)
    p = x[system.n_u:]
    res = float(np.linalg.norm(np.append(rhs - _matvec(system, x),
                                         -float(system.m @ p)))) / rhs_norm
    history.append(res)
    return x[:system.n_u], p, res


def solve(system, rtol=1e-9):
    """Solve the constrained saddle system to a relative residual <= rtol.

    Raises SingularSystemError, with the stats gathered so far, on a zero
    pivot or a final residual above rtol, and SolverError, naming the DOF
    count and K's stored entries, when the factor runs out of memory.
    """
    m, c, G = system.m, system.c, system.G
    stats = {"ordering": f"{ORDERING}/symmetric", "regularization": DELTA}
    lam = float(c @ G) / float(c @ m)
    g = G - lam * m
    # the residuals are relative, or absolute for a zero right-hand side
    rhs_norm = float(np.hypot(np.linalg.norm(system.F),
                              np.linalg.norm(G))) or 1.0
    try:
        apply = _factor_shifted(system, stats)
    except RuntimeError as exc:
        raise SingularSystemError(
            "factorization hit a zero pivot in the "
            f"{_diagnose_singular(system)}", stats) from exc
    u, p, res = _refine(system, apply, g, rhs_norm, stats)
    if not res <= rtol:
        raise SingularSystemError(
            f"direct solve residual {res:.3e} exceeds {rtol:.1e}; "
            f"suspect the {_diagnose_singular(system)}", stats)
    stats["pressure_mean"] = float(m @ p)
    return Solution(u=u, p=p, multiplier=lam, residual=res, stats=stats)
