"""Global assembly of the saddle-point system.

DOF layout (owned by Discretization): per-cell velocity blocks (x-component
coefficients then y-component), then per-cell pressure blocks, then one
Lagrange-multiplier row enforcing the zero pressure mean.  The assembled
blocks are

    A[I,J]     = mu (grad_w phi_J, grad_w phi_I) + mu (kinv phi_J, phi_I)
    B[I,alpha] = (phi_I, grad_w~ psi_alpha)
    S[a,b]     = sum_e h <[[psi_b]], [[psi_a]]>_e   (interior edges)
    F[I]       = (f, phi_I) - mu (lift(g), grad_w phi_I)
    G[alpha]   = <psi_alpha, g . n>_(boundary)
    m[alpha]   = integral of psi_alpha

and the full matrix is [[A, B, 0], [B^T, -S, m], [0, m^T, 0]].  Assembly
iterates cells and edges in index order with per-cell contribution lists, so
repeated runs produce bit-identical matrices.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

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


def _kappa_range(v, tensor, points, where="", rtol=1e-12):
    """Eigenvalue range of kappa^{-1} values v sampled at points.

    Raises ValueError, naming ``where`` and the first offending point, for
    a non-finite or nonpositive scalar, or a tensor that is non-finite,
    unsymmetric or not positive definite.
    """
    if not tensor:
        lo, hi = float(v.min()), float(v.max())
        if lo > 0.0 and hi < np.inf:  # false too when v holds a NaN
            return lo, hi
        bad = np.argmin(np.isfinite(v) & (v > 0.0))
        kind = "nonpositive" if np.isfinite(v[bad]) else "non-finite"
        raise ValueError(
            f"{kind} kappa_inv {v[bad]} {where}at point {points[bad]}")
    finite = np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        bad = np.argmin(finite)
        raise ValueError(
            f"non-finite kappa_inv {v[bad].tolist()} {where}at point "
            f"{points[bad]}")
    asym = np.abs(v[:, 0, 1] - v[:, 1, 0])
    scale = np.abs(v).max(axis=(1, 2))
    if np.any(asym > rtol * np.maximum(scale, 1.0)):
        bad = np.argmax(asym > rtol * np.maximum(scale, 1.0))
        raise ValueError(
            f"kappa_inv not symmetric {where}at point {points[bad]}")
    eig = np.linalg.eigvalsh(0.5 * (v + v.transpose(0, 2, 1)))
    if np.any(eig[:, 0] <= 0.0):
        bad = np.argmax(eig[:, 0] <= 0.0)
        raise ValueError(
            f"kappa_inv not positive definite {where}at point {points[bad]}")
    return float(eig[:, 0].min()), float(eig[:, 1].max())


class _Coo:
    """Deterministic COO accumulator (fixed append order)."""

    def __init__(self):
        self.rows = []
        self.cols = []
        self.vals = []

    def add_block(self, rows, cols, block):
        r = np.repeat(rows, len(cols))
        c = np.tile(cols, len(rows))
        self.rows.append(r)
        self.cols.append(c)
        self.vals.append(np.asarray(block, dtype=float).ravel())

    def tocsr(self, shape):
        if not self.rows:
            return sp.csr_matrix(shape)
        m = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=shape)
        return m.tocsr()


def _velocity_indices(disc, op, comp):
    """Global velocity DOF ids for one component over op's involved cells."""
    return np.concatenate(
        [np.arange(disc.velocity_slice(c, comp).start,
                   disc.velocity_slice(c, comp).stop) for c in op.cells])


def _pressure_indices(disc, op):
    return np.concatenate(
        [np.arange(disc.pressure_slice(c).start,
                   disc.pressure_slice(c).stop) for c in op.cells])


def assemble_a(disc, problem):
    """Velocity block A (SPD) and the boundary-lifting contribution to F.

    Raises ValueError for a viscosity that is not finite and positive, and
    for kappa^{-1} values at the cell quadrature points that are not finite
    and positive (SPD for a tensor), naming the cell and the point.
    """
    n_u = disc.n_velocity_dofs
    acc = _Coo()
    lift = np.zeros(n_u)
    mu = problem.mu
    if not (np.isfinite(mu) and mu > 0.0):
        raise ValueError(f"viscosity mu must be finite and positive, got {mu}")
    for c in range(disc.mesh.n_cells):
        ctx = disc.contexts[c]
        op = disc.vel_grad[c]
        visc = mu * (op.Zx.T @ op.Zx + op.Zy.T @ op.Zy)
        kv, tensor = problem.kappa_inv_at(ctx.rule.points)
        _kappa_range(kv, tensor, ctx.rule.points, where=f"in cell {c} ")
        vals = ctx.block_k.vals
        w = ctx.rule.weights
        own = [np.arange(disc.velocity_slice(c, comp).start,
                         disc.velocity_slice(c, comp).stop)
               for comp in (0, 1)]
        for comp in (0, 1):
            idx = _velocity_indices(disc, op, comp)
            acc.add_block(idx, idx, visc)
        if tensor:
            for r in (0, 1):
                for s in (0, 1):
                    mass = mu * (vals * (w * kv[:, r, s])) @ vals.T
                    acc.add_block(own[r], own[s], mass)
        else:
            mass = mu * (vals * (w * kv)) @ vals.T
            for comp in (0, 1):
                acc.add_block(own[comp], own[comp], mass)
        # Dirichlet lifting: -mu (lift(g), grad_w phi_I) over boundary cells
        if any(nb is None for nb in ctx.neighbors):
            for comp in (0, 1):
                rx, ry = disc.boundary_lifting_rhs(c, problem.g, comp)
                contrib = mu * (rx @ op.Wx + ry @ op.Wy)
                lift[_velocity_indices(disc, op, comp)] -= contrib
    return acc.tocsr((n_u, n_u)), lift


def assemble_b(disc):
    """Coupling block B[I, alpha] = (phi_I, grad_w~ psi_alpha)."""
    acc = _Coo()
    for c in range(disc.mesh.n_cells):
        op = disc.pre_grad[c]
        cols = _pressure_indices(disc, op)
        for comp, braw in ((0, op.Bx), (1, op.By)):
            rows = np.arange(disc.velocity_slice(c, comp).start,
                             disc.velocity_slice(c, comp).stop)
            acc.add_block(rows, cols, braw)
    return acc.tocsr((disc.n_velocity_dofs, disc.n_pressure_dofs))


def assemble_s(disc, edges="interior", weight="global-h"):
    """Pressure jump stabilizer S (positive semidefinite).

    ``edges`` selects the summation set ("interior" per the consistency
    argument; "all" adds boundary edges).  ``weight`` is the factor h: the
    global geometric mesh size, or per-edge lengths ("edge-h").
    """
    if edges not in ("interior", "all"):
        raise ValueError("edges must be 'interior' or 'all'")
    if weight not in ("global-h", "edge-h"):
        raise ValueError("weight must be 'global-h' or 'edge-h'")
    mesh = disc.mesh
    acc = _Coo()
    for e in mesh.edges:
        if e.is_boundary and edges != "all":
            continue
        h = mesh.h if weight == "global-h" else e.length
        rule = disc.edge_rules[e.index]
        w = rule.weights
        cm = e.cell_minus
        ctxm = disc.contexts[cm]
        tm = ctxm.block_p.trace(ctxm.basis, rule.points)
        im = np.arange(disc.pressure_slice(cm).start,
                       disc.pressure_slice(cm).stop)
        if e.is_boundary:
            acc.add_block(im, im, h * (tm * w) @ tm.T)
            continue
        cp = e.cell_plus
        ctxp = disc.contexts[cp]
        tp = ctxp.block_p.trace(ctxp.basis, rule.points)
        ip = np.arange(disc.pressure_slice(cp).start,
                       disc.pressure_slice(cp).stop)
        mm = h * (tm * w) @ tm.T
        mp = h * (tm * w) @ tp.T
        pp = h * (tp * w) @ tp.T
        acc.add_block(im, im, mm)
        acc.add_block(im, ip, -mp)
        acc.add_block(ip, im, -mp.T)
        acc.add_block(ip, ip, pp)
    n_p = disc.n_pressure_dofs
    return acc.tocsr((n_p, n_p))


def assemble_rhs(disc, problem):
    """Load vector F (with Dirichlet lifting) and pressure-block vector G.

    G carries the boundary pairing <psi, g . n> of the divergence equation;
    it vanishes when g = 0 and is required for exact consistency otherwise.
    """
    F = np.zeros(disc.n_velocity_dofs)
    G = np.zeros(disc.n_pressure_dofs)
    for c in range(disc.mesh.n_cells):
        ctx = disc.contexts[c]
        fv = np.asarray(problem.f(ctx.rule.points), dtype=float)
        w = ctx.rule.weights
        for comp in (0, 1):
            F[disc.velocity_slice(c, comp)] += ctx.block_k.vals @ (w * fv[:, comp])
    _, lift = assemble_a(disc, problem)
    F += lift
    for eid in disc.mesh.boundary_edge_ids:
        e = disc.mesh.edges[eid]
        c = e.cell_minus
        ctx = disc.contexts[c]
        rule = disc.edge_rules[eid]
        gv = np.asarray(problem.g(rule.points), dtype=float)
        gn = gv @ e.normal
        tr = ctx.block_p.trace(ctx.basis, rule.points)
        G[disc.pressure_slice(c)] += tr @ (rule.weights * gn)
    return F, G


def assemble_mean_constraint(disc):
    """Vector m with m_alpha = integral of psi_alpha over the domain."""
    m = np.zeros(disc.n_pressure_dofs)
    for c in range(disc.mesh.n_cells):
        ctx = disc.contexts[c]
        m[disc.pressure_slice(c)] = ctx.block_p.vals @ ctx.rule.weights
    return m


@dataclass
class SaddleSystem:
    """Assembled sparse blocks plus the zero-mean pressure constraint."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    S: sp.csr_matrix
    m: np.ndarray
    F: np.ndarray
    G: np.ndarray
    n_u: int = field(init=False)
    n_p: int = field(init=False)

    def __post_init__(self):
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


def assemble_system(disc, problem, stabilizer_edges="interior",
                    s_weight="global-h"):
    """Assemble all blocks of the discrete Brinkman saddle system."""
    A, lift = assemble_a(disc, problem)
    B = assemble_b(disc)
    S = assemble_s(disc, edges=stabilizer_edges, weight=s_weight)
    F = np.zeros(disc.n_velocity_dofs)
    G = np.zeros(disc.n_pressure_dofs)
    for c in range(disc.mesh.n_cells):
        ctx = disc.contexts[c]
        fv = np.asarray(problem.f(ctx.rule.points), dtype=float)
        w = ctx.rule.weights
        for comp in (0, 1):
            F[disc.velocity_slice(c, comp)] += ctx.block_k.vals @ (w * fv[:, comp])
    F += lift
    for eid in disc.mesh.boundary_edge_ids:
        e = disc.mesh.edges[eid]
        c = e.cell_minus
        ctx = disc.contexts[c]
        rule = disc.edge_rules[eid]
        gv = np.asarray(problem.g(rule.points), dtype=float)
        gn = gv @ e.normal
        tr = ctx.block_p.trace(ctx.basis, rule.points)
        G[disc.pressure_slice(c)] += tr @ (rule.weights * gn)
    m = assemble_mean_constraint(disc)
    return SaddleSystem(A=A, B=B, S=S, m=m, F=F, G=G)
