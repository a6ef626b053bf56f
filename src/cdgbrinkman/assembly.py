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
constraint in closed form through the coefficients of the constant
pressure (K's null vector), which in the orthonormal bases are m itself.
Each block is one COO build over the Discretization's per-key maps,
appended in a fixed order and summed into a ``CsrMatrix`` by one stable
sort of their keys, so repeated runs produce bit-identical matrices.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "BrinkmanProblem",
    "CsrMatrix",
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

    ``kappa_inv`` maps points (n, 2) to scalars (n,); ``f`` and ``g`` map
    points to vectors (n, 2).
    """

    mu: float
    kappa_inv: Callable
    f: Callable
    g: Callable

    def kappa_inv_at(self, points):
        """kappa^{-1} at points (n, 2), as an (n,) array."""
        v = np.asarray(self.kappa_inv(points), dtype=float)
        if v.shape != (len(points),):
            raise ValueError(f"kappa_inv must return one scalar per point, "
                             f"shape ({len(points)},); got shape {v.shape}")
        return v


def _first(bad, owner):
    """Index of the first flagged point of the lowest-numbered owner."""
    idx = np.flatnonzero(bad)
    return idx[0] if owner is None else idx[np.argmin(owner[idx])]


def _kappa_range(v, points, owner=None):
    """(min, max) of kappa^{-1} values v sampled at points.

    Raises ValueError, naming the cell (``owner`` holds the cell of each
    point) and the offending point, for a non-finite or nonpositive value.
    """
    lo, hi = float(v.min()), float(v.max())
    if lo > 0.0 and hi < np.inf:  # false too when v holds a NaN
        return lo, hi
    i = _first(~(np.isfinite(v) & (v > 0.0)), owner)
    where = "" if owner is None else f"in cell {owner[i]} "
    raise ValueError(f"{'nonpositive' if np.isfinite(v[i]) else 'non-finite'}"
                     f" kappa_inv {v[i]} {where}at point {points[i]}")


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


class CsrMatrix:
    """Sparse matrix in compressed sparse row form.

    Row i stores the values ``data[indptr[i]:indptr[i + 1]]`` at the
    ascending columns ``indices[indptr[i]:indptr[i + 1]]``.  ``M @ x`` and
    ``M.T @ x`` take a vector x.  Where scipy is installed, the same matrix
    is ``scipy.sparse.csr_matrix((M.data, M.indices, M.indptr), M.shape)``.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = tuple(shape)

    @property
    def nnz(self):
        return len(self.data)

    @property
    def T(self):
        return _Transpose(self)

    def row_ids(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x):
        y = np.zeros(self.shape[0])
        rows = np.flatnonzero(np.diff(self.indptr))  # the nonempty ones
        if len(rows):
            prod = np.take(np.asarray(x, float), self.indices)
            prod *= self.data
            y[rows] = np.add.reduceat(prod, self.indptr[rows])
        return y


class _Transpose:
    """M^T, for ``M.T @ x``."""

    def __init__(self, m):
        self.m = m
        self.shape = m.shape[::-1]

    def __matmul__(self, x):
        m = self.m
        prod = np.repeat(np.asarray(x, float), np.diff(m.indptr))
        prod *= m.data
        return np.bincount(m.indices, prod, minlength=m.shape[1])


class _Coo:
    """Deterministic COO accumulator (fixed append order).

    The columns of each added block come in runs of ``run`` consecutive
    indices that start at a multiple of ``run`` (a cell's DOFs), so each row
    of a block is kept as a few runs: ``run`` times fewer keys to sort than
    entries.
    """

    def __init__(self, shape, run):
        self.shape = shape
        self.run = run
        self.keys = []
        self.vals = []

    def add(self, rows, cols, blocks):
        """Stacked blocks (m, a, b) at rows (m, a) x cols (m, b).

        Entries with a row or column index of -1 (boundary neighbour slots)
        are dropped.  Each run is kept as its key row * ncols / run +
        first column / run.
        """
        d = self.run
        m, a, b = blocks.shape
        r = rows[:, :, None]
        c = cols[:, None, ::d] // d
        keep = (r >= 0) & (c >= 0)
        self.keys.append((r * np.int64(self.shape[1] // d) + c)[keep])
        self.vals.append(blocks.reshape(m, a, b // d, d)[keep])

    def tocsr(self):
        """The CSR matrix of the sum, duplicates summed in append order and
        exact zeros dropped."""
        n, ncols = self.shape
        d = self.run
        # each list is freed once concatenated, to keep the peak down
        keys = np.concatenate(self.keys or [np.empty(0, np.int64)])
        self.keys = None
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.empty(len(keys), bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        # the distinct run that each added run sums into
        slot = np.empty(len(keys), np.intp)
        slot[order] = np.cumsum(new) - 1
        del order
        keys = keys[new]
        vals = np.concatenate(self.vals or [np.empty((0, d))])
        self.vals = None
        # bincount adds in index order, so duplicates sum in append order
        sums = np.empty((len(keys), d))
        for j in range(d):
            sums[:, j] = np.bincount(slot, vals[:, j], minlength=len(keys))
        del slot, vals
        # basis moments that vanish on symmetric cells, and duplicates that
        # cancel, sum to exact zeros: fill for the factor, work for a matvec
        nz = np.flatnonzero(sums)
        # roundoff-level entries stay: dropping |D K D| < 1e-12 gives minimum
        # degree a sparser pattern but more fill (rect n=16 k=3: 5.41 M ->
        # 7.21 M, factor 0.29 -> 0.55 s)
        first = np.arange(n + 1) * np.int64(ncols // d)
        runs = np.searchsorted(keys, first)
        keys -= np.repeat(first[:-1], np.diff(runs))
        return CsrMatrix(np.searchsorted(nz, runs * d),
                         keys[nz // d] * d + nz % d, sums.ravel()[nz],
                         self.shape)


def assemble_a(disc, problem):
    """Velocity block A (SPD).

    A = I_2 (x) A_s: both velocity components share the scalar block A_s,
    built once, and the two never couple.  Raises ValueError for a
    viscosity that is not finite and positive, and for kappa^{-1} values at
    the cell quadrature points that are not finite and positive, naming the
    cell and the point.
    """
    return _velocity_block(disc, problem)[0]


def _velocity_block(disc, problem):
    """A and the (min, max) of kappa^{-1} at the cell quadrature points."""
    mu = problem.mu
    _check_mu(mu)
    kv = problem.kappa_inv_at(disc.cell_points)
    kappa_range = _kappa_range(kv, disc.cell_points, disc.cell_owner)
    d = disc.dim_k
    scalar = np.arange(disc.mesh.n_cells * d).reshape(-1, d)
    acc = _Coo((scalar.size, scalar.size), d)
    for cls, vel, mass in zip(disc.classes, disc.vel, disc.cell_mass(kv, d)):
        velT = vel.transpose(0, 1, 3, 2)
        visc = mu * (velT[:, 0] @ vel[:, 0] + velT[:, 1] @ vel[:, 1])
        idx = disc.columns(cls, scalar)
        acc.add(idx, idx, visc[cls.key])
        own = scalar[cls.cells]
        acc.add(own, own, mu * mass)
    a_s = acc.tocsr()
    # velocity DOF velocity_dofs[c, comp, a] takes A_s's row scalar[c, a],
    # its columns moved into component comp (in order, as the layout keeps
    # each component's DOFs in the scalar order)
    vdofs = disc.velocity_dofs
    rows = np.empty(vdofs.size, np.int64)
    rows[vdofs] = scalar[:, None]
    # where each row's component starts in the (2, n_s) table of DOFs
    shift = np.empty(vdofs.size, np.int64)
    shift[vdofs] = np.arange(2)[:, None] * scalar.size
    lengths = np.diff(a_s.indptr)[rows]
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    at = np.repeat(a_s.indptr[rows] - indptr[:-1], lengths)
    at += np.arange(indptr[-1])
    cols, data = a_s.indices[at], a_s.data[at]
    del at, a_s
    cols += np.repeat(shift, lengths)
    cols = vdofs.transpose(1, 0, 2).ravel()[cols]
    return CsrMatrix(indptr, cols, data, (len(rows), len(rows))), kappa_range


def _boundary_data(disc, g):
    """Dirichlet data at the half-edge points, checked on the boundary."""
    gv = disc.boundary_values(g)
    bnd = disc.edge_twin < 0
    _check_finite(gv[bnd], disc.edge_points[bnd], disc.edge_index[bnd],
                  "boundary data g", "on edge")
    return gv


def _lifting(disc, mu, g_values):
    """-mu (lift(g), grad_w phi_I): the Dirichlet lifting part of F."""
    return -mu * disc.apply_transpose(disc.vel, disc.lifting(g_values)).ravel()


def _pressure_columns(disc, n_rows, rows, maps):
    """The block whose rows ``rows[cell, r]`` hold a cell's ``maps[r]``
    over the pressure DOFs of the cell and its neighbours."""
    acc = _Coo((n_rows, disc.n_pressure_dofs), disc.dim_p)
    for cls, mp in zip(disc.classes, maps):
        cols = disc.columns(cls, disc.pressure_dofs)
        for r in range(mp.shape[1]):
            acc.add(rows[cls.cells, r], cols, mp[cls.key, r])
    return acc.tocsr()


def assemble_b(disc):
    """Coupling block B[I, alpha] = (phi_I, grad_w~ psi_alpha)."""
    return _pressure_columns(disc, disc.n_velocity_dofs, disc.velocity_dofs,
                             disc.pre)


def assemble_s(disc):
    """Pressure jump stabilizer S (positive semidefinite).

    S sums h <[[psi_b]], [[psi_a]]>_e over the interior edges only, as the
    consistency argument requires, with h the global mesh size; a cell's
    rows are its jump map, as B's are its pressure weak gradient.  A
    constant pressure has no interior jumps, so S c = 0 for its
    coefficients c, which the solver's closed-form multiplier relies on.
    """
    return _pressure_columns(disc, disc.n_pressure_dofs,
                             disc.pressure_dofs[:, None], disc.jump_maps())


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
    F = (_lifting(disc, problem.mu, gv)
         + disc.cell_moments(fv, disc.dim_k).ravel())
    # a boundary half-edge belongs to the edge's minus cell, so its normal
    # is the edge's
    G = disc.edge_moments((gv * disc.edge_normal).sum(axis=1), disc.dim_p)
    return F, G.ravel()


def assemble_mean_constraint(disc):
    """m_alpha = integral of psi_alpha, also the coefficients of 1."""
    return disc.cell_moments(np.ones(len(disc.cell_points)),
                             disc.dim_p).ravel()


@dataclass
class SaddleSystem:
    """Assembled sparse blocks plus the zero-mean pressure constraint.

    ``m`` also holds the pressure coefficients of the constant function 1
    (see :func:`assemble_mean_constraint`), ``centroids`` the cell
    centroids, which the solver's ordering dissects, and
    ``kappa_inv_range`` the (min, max) of kappa^{-1} at the cell quadrature
    points, where :func:`assemble_a` checked it.
    """

    A: CsrMatrix
    B: CsrMatrix
    S: CsrMatrix
    m: np.ndarray
    F: np.ndarray
    G: np.ndarray
    centroids: np.ndarray
    kappa_inv_range: tuple
    n_cells: int = field(init=False)
    n_u: int = field(init=False)
    n_p: int = field(init=False)

    def __post_init__(self):
        self.n_cells = len(self.centroids)
        self.n_u = self.A.shape[0]
        self.n_p = self.S.shape[0]


def assemble_system(disc, problem):
    """Assemble all blocks of the discrete Brinkman saddle system."""
    A, kappa_range = _velocity_block(disc, problem)
    B = assemble_b(disc)
    S = assemble_s(disc)
    F, G = assemble_rhs(disc, problem)
    m = assemble_mean_constraint(disc)
    return SaddleSystem(A=A, B=B, S=S, m=m, F=F, G=G,
                        centroids=disc.mesh.cells.centroid,
                        kappa_inv_range=kappa_range)
