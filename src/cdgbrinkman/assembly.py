"""Global assembly of the saddle-point system.

DOF layout (owned by Discretization): per-cell velocity blocks (x-component
coefficients then y-component), then per-cell pressure blocks.  The
assembled blocks are

    A[I,J]     = mu (grad_w phi_J, grad_w phi_I) + mu (kinv phi_J, phi_I)
    B[I,alpha] = (phi_I, grad_w~ psi_alpha)
    S[a,b]     = sum_e h <[[psi_b]], [[psi_a]]>_e   (interior edges)
    F[I]       = (f, phi_I) - mu (lift(g), grad_w phi_I)
    G[alpha]   = <psi_alpha, g . n>_(boundary)
    m[alpha]   = integral of psi_alpha

and the full matrix, with one Lagrange multiplier enforcing the zero
pressure mean, is [[A, B, 0], [B^T, -S, m], [0, m^T, 0]].  The solver
never forms it: it factors K = [[A, B], [B^T, -S]] and handles the
constraint in closed form through the coefficients c of the constant
pressure (K's null vector), which the system carries along with the cell
centroids.  Each block is one COO build over the Discretization's stacked
per-shape-class arrays, appended in a fixed order, so repeated runs
produce bit-identical matrices.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BrinkmanProblem",
    "SaddleSystem",
    "assemble_a",
    "assemble_b",
    "assemble_s",
    "assemble_rhs",
    "assemble_mean_constraint",
    "assemble_system",
]


@dataclass(frozen=True)
class BrinkmanProblem:
    """Coefficients and data of one Brinkman flow problem.

    ``kappa_inv`` maps points (n, 2) to scalars (n,) or SPD tensors
    (n, 2, 2); ``f`` and ``g`` map points to vectors (n, 2).
    """

    mu: float
    kappa_inv: Callable
    f: Callable
    g: Callable

    def kappa_inv_at(self, points):
        """Evaluate kappa^{-1}; returns ((n,) array, is_tensor flag)."""
        v = np.asarray(self.kappa_inv(points), dtype=float)
        if v.ndim == 1:
            return v, False
        if v.ndim == 3 and v.shape[1:] == (2, 2):
            return v, True
        raise ValueError("kappa_inv must return (n,) or (n, 2, 2) values")

    def validate_kappa(self, points, rtol=1e-12):
        """Sample kappa^{-1}: finite and positive (scalar) or SPD (tensor).

        Returns the sampled eigenvalue range (lambda_min, lambda_max).
        """
        v, tensor = self.kappa_inv_at(points)
        return _kappa_range(v, tensor, points, rtol=rtol)


def _first(bad, owner):
    """Index of the first flagged point of the lowest-numbered owner."""
    idx = np.flatnonzero(bad)
    return idx[0] if owner is None else idx[np.argmin(owner[idx])]


def _kappa_range(v, tensor, points, owner=None, rtol=1e-12):
    """Eigenvalue range of kappa^{-1} values v sampled at points.

    Raises ValueError, naming the cell (``owner`` holds the cell of each
    point) and the offending point, for a non-finite or nonpositive scalar,
    or a tensor that is non-finite, unsymmetric or not positive definite.
    """
    def reject(bad, message):
        i = _first(bad, owner)
        where = "" if owner is None else f"in cell {owner[i]} "
        raise ValueError(f"{message(i)} {where}at point {points[i]}")

    if not tensor:
        lo, hi = float(v.min()), float(v.max())
        if lo > 0.0 and hi < np.inf:  # false too when v holds a NaN
            return lo, hi
        reject(~(np.isfinite(v) & (v > 0.0)), lambda i: (
            f"{'nonpositive' if np.isfinite(v[i]) else 'non-finite'} "
            f"kappa_inv {v[i]}"))
    finite = np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        reject(~finite, lambda i: f"non-finite kappa_inv {v[i].tolist()}")
    asym = np.abs(v[:, 0, 1] - v[:, 1, 0])
    scale = np.abs(v).max(axis=(1, 2))
    if np.any(asym > rtol * np.maximum(scale, 1.0)):
        reject(asym > rtol * np.maximum(scale, 1.0),
               lambda i: "kappa_inv not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (v + v.transpose(0, 2, 1)))
    if np.any(eig[:, 0] <= 0.0):
        reject(eig[:, 0] <= 0.0, lambda i: "kappa_inv not positive definite")
    return float(eig[:, 0].min()), float(eig[:, 1].max())


def _check_finite(v, points, owner, name, place):
    """Reject non-finite data values, naming the cell or edge and the point."""
    ok = np.isfinite(v).reshape(len(v), -1).all(axis=1)
    if not ok.all():
        i = _first(~ok, owner)
        raise ValueError(f"non-finite {name} {v[i].tolist()} {place} "
                         f"{owner[i]} at point {points[i]}")


def _check_mu(mu):
    if not (np.isfinite(mu) and mu > 0.0):
        raise ValueError(f"viscosity mu must be finite and positive, got {mu}")


class _Coo:
    """Deterministic COO accumulator (fixed append order)."""

    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def add(self, rows, cols, blocks):
        """Stacked blocks (m, a, b) at rows (m, a) x cols (m, b).

        Entries with a row or column index of -1 (boundary neighbour slots)
        are dropped.
        """
        r = np.broadcast_to(rows[:, :, None], blocks.shape)
        c = np.broadcast_to(cols[:, None, :], blocks.shape)
        keep = (r >= 0) & (c >= 0)
        self.rows.append(r[keep])
        self.cols.append(c[keep])
        self.vals.append(blocks[keep])

    def tocsr(self, shape):
        if not self.rows:
            return sp.csr_matrix(shape)
        m = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=shape)
        m = m.tocsr()
        # basis moments that vanish on symmetric cells, and duplicates that
        # cancel, sum to exact zeros: fill for the factor, work for a matvec
        m.eliminate_zeros()
        # roundoff-level entries stay: dropping |D K D| < 1e-12 gives minimum
        # degree a sparser pattern but more fill (rect n=16 k=3: 5.41 M ->
        # 7.21 M, factor 0.29 -> 0.55 s)
        return m


def _matrix_a(disc, problem):
    """Velocity block A; checks mu and the kappa^{-1} values it evaluates."""
    mu = problem.mu
    _check_mu(mu)
    kv, tensor = problem.kappa_inv_at(disc.cell_points)
    _kappa_range(kv, tensor, disc.cell_points, disc.cell_owner)
    acc = _Coo()
    for cls, vel, kc in zip(disc.classes, disc.vel, disc.split(kv)):
        velT = vel.transpose(0, 1, 3, 2)
        visc = mu * (velT[0] @ vel[0] + velT[1] @ vel[1])
        for comp in (0, 1):
            idx = disc.columns(cls, disc.velocity_dofs[:, comp])
            acc.add(idx, idx, visc)
        vals = cls.phi[:, :disc.dim_k]
        valsT = vals.transpose(0, 2, 1)
        own = disc.velocity_dofs[cls.cells]
        if tensor:
            for r in (0, 1):
                for s in (0, 1):
                    wk = (cls.weights * kc[..., r, s])[:, None, :]
                    acc.add(own[:, r], own[:, s], mu * (vals * wk) @ valsT)
        else:
            mass = mu * (vals * (cls.weights * kc)[:, None, :]) @ valsT
            for comp in (0, 1):
                acc.add(own[:, comp], own[:, comp], mass)
    n_u = disc.n_velocity_dofs
    return acc.tocsr((n_u, n_u))


def _boundary_data(disc, g):
    """Dirichlet data at the half-edge points, checked on the boundary."""
    gv = disc.boundary_values(g)
    bnd = disc.edge_twin < 0
    _check_finite(gv[bnd], disc.edge_points[bnd], disc.edge_index[bnd],
                  "boundary data g", "on edge")
    return gv


def _lifting(disc, mu, g_values):
    """-mu (lift(g), grad_w phi_I): the Dirichlet lifting part of F."""
    n_u = disc.n_velocity_dofs
    lift = np.zeros(n_u)
    moments = disc.boundary_lifting_rhs(g_values)
    for cls, vel, rhs in zip(disc.classes, disc.vel, moments):
        for comp in (0, 1):
            contrib = mu * (rhs[comp][:, :, None, :] @ vel)[:, :, 0].sum(0)
            idx = disc.columns(cls, disc.velocity_dofs[:, comp])
            keep = idx >= 0
            lift -= np.bincount(idx[keep], contrib[keep], minlength=n_u)
    return lift


def assemble_a(disc, problem):
    """Velocity block A (SPD) and the boundary-lifting contribution to F.

    Raises ValueError for a viscosity that is not finite and positive, and
    for kappa^{-1} values at the cell quadrature points that are not finite
    and positive (SPD for a tensor), naming the cell and the point.
    """
    A = _matrix_a(disc, problem)
    return A, _lifting(disc, problem.mu, _boundary_data(disc, problem.g))


def assemble_b(disc):
    """Coupling block B[I, alpha] = (phi_I, grad_w~ psi_alpha)."""
    acc = _Coo()
    for cls, pre in zip(disc.classes, disc.pre):
        cols = disc.columns(cls, disc.pressure_dofs)
        for comp in (0, 1):
            acc.add(disc.velocity_dofs[cls.cells, comp], cols, pre[comp])
    return acc.tocsr((disc.n_velocity_dofs, disc.n_pressure_dofs))


def assemble_s(disc):
    """Pressure jump stabilizer S (positive semidefinite).

    S sums h <[[psi_b]], [[psi_a]]>_e over the interior edges only, as the
    consistency argument requires, with h the global mesh size.  A
    constant pressure has no interior jumps, so S c = 0 for its
    coefficients c, which the solver's closed-form multiplier relies on.
    """
    take = disc.jump_points()
    h = disc.mesh.h
    dp = disc.dim_p
    acc = _Coo()
    for cls in disc.classes:
        for g in cls.groups:
            sl = slice(g.start, g.stop)
            rows = take[sl].reshape(-1, g.q)[:, 0]
            w = disc.edge_weights[sl].reshape(-1, 1, g.q)[rows]
            tm = disc.trace_k[sl, :dp].reshape(-1, g.q, dp)[rows]
            tm = tm.transpose(0, 2, 1)
            tp = disc.trace_k[g.twin[rows], :dp].transpose(0, 2, 1)
            own = disc.pressure_dofs[g.owner[rows]]
            nbr = disc.pressure_dofs[cls.nbr[g.slot, g.local][rows]]
            mp = h * (tm * w) @ tp.transpose(0, 2, 1)
            acc.add(own, own, h * (tm * w) @ tm.transpose(0, 2, 1))
            acc.add(own, nbr, -mp)
            acc.add(nbr, own, -mp.transpose(0, 2, 1))
            acc.add(nbr, nbr, h * (tp * w) @ tp.transpose(0, 2, 1))
    n_p = disc.n_pressure_dofs
    return acc.tocsr((n_p, n_p))


def assemble_rhs(disc, problem):
    """Load vector F (with Dirichlet lifting) and pressure-block vector G.

    G carries the boundary pairing <psi, g . n> of the divergence equation;
    it vanishes when g = 0 and is required for exact consistency otherwise.
    Raises ValueError for a body force f or boundary data g that is not
    finite at a quadrature point, naming the cell or edge and the point.
    """
    _check_mu(problem.mu)
    fv = np.asarray(problem.f(disc.cell_points), dtype=float)
    _check_finite(fv, disc.cell_points, disc.cell_owner, "body force f",
                  "in cell")
    gv = _boundary_data(disc, problem.g)
    F = _lifting(disc, problem.mu, gv)
    for cls, fc in zip(disc.classes, disc.split(fv)):
        load = cls.phi[:, :disc.dim_k] @ (cls.weights[..., None] * fc)
        F[disc.velocity_dofs[cls.cells]] += load.transpose(0, 2, 1)
    # a boundary half-edge belongs to the edge's minus cell, so its normal
    # is the edge's
    gn = disc.edge_weights * (gv * disc.edge_normal).sum(axis=1)
    dp = disc.dim_p
    G = np.bincount(disc.pressure_dofs[disc.edge_owner].ravel(),
                    (disc.trace_k[:, :dp] * gn[:, None]).ravel(),
                    minlength=disc.n_pressure_dofs)
    return F, G


def assemble_mean_constraint(disc):
    """Vector m with m_alpha = integral of psi_alpha over the domain."""
    m = np.zeros(disc.n_pressure_dofs)
    for cls in disc.classes:
        m[disc.pressure_dofs[cls.cells]] = (
            cls.phi[:, :disc.dim_p] @ cls.weights[..., None])[..., 0]
    return m


@dataclass
class SaddleSystem:
    """Assembled sparse blocks plus the zero-mean pressure constraint.

    ``c`` holds the pressure coefficients of the constant function 1, and
    ``centroids`` the cell centroids, which the solver's ordering dissects.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    S: sp.csr_matrix
    m: np.ndarray
    F: np.ndarray
    G: np.ndarray
    c: np.ndarray
    centroids: np.ndarray
    n_cells: int = field(init=False)
    n_u: int = field(init=False)
    n_p: int = field(init=False)

    def __post_init__(self):
        self.n_cells = len(self.centroids)
        self.n_u = self.A.shape[0]
        self.n_p = self.S.shape[0]

    def matrix(self, constrained=True):
        """Full symmetric indefinite matrix, CSC for factorization."""
        if constrained:
            mc = sp.csc_matrix(self.m[:, None])
            blocks = [[self.A, self.B, None],
                      [self.B.T, -self.S, mc],
                      [None, mc.T, None]]
        else:
            blocks = [[self.A, self.B], [self.B.T, -self.S]]
        return sp.bmat(blocks, format="csc")

    def rhs(self, constrained=True):
        if constrained:
            return np.concatenate([self.F, self.G, [0.0]])
        return np.concatenate([self.F, self.G])

    def symmetry_defect(self):
        """max |M - M^T| over the full constrained matrix."""
        M = self.matrix()
        d = (M - M.T).tocoo()
        return float(np.abs(d.data).max()) if d.nnz else 0.0


def assemble_system(disc, problem):
    """Assemble all blocks of the discrete Brinkman saddle system."""
    A = _matrix_a(disc, problem)
    B = assemble_b(disc)
    S = assemble_s(disc)
    F, G = assemble_rhs(disc, problem)
    m = assemble_mean_constraint(disc)
    # in an orthonormal basis the coefficients of the projection of 1 are
    # its moments
    return SaddleSystem(A=A, B=B, S=S, m=m, F=F, G=G, c=m,
                        centroids=disc.mesh.cells.centroid)
