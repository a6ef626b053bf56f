"""Per-cell reference tools that the tests check the library against.

A scaled monomial basis on one cell, single-polygon and single-edge
quadrature rules built on the library's stacked ones, and Gram matrix
solves by scipy's Cholesky.  The library builds all of these stacked over
shape classes and never reads the per-cell forms; the tests use them as
independent references.  Also the pointwise edge average and jumps, the
symmetry defect of an assembled system and a sampled check of kappa^{-1},
and the conversions between the library's sparse blocks and scipy's, with
the full saddle matrix and right-hand side built from them.  One cell's
tables in a Discretization, read through the cell's congruence key
(:class:`CellTables`), and the same tables rebuilt from the cell's own
geometry (:func:`own_basis`, :func:`own_maps`); a tensor field's
per-cell projection onto the weak-gradient spaces (:func:`project_tensor`).
The polygonal generator's mesh built one lattice hexagon at a time by a
per-cell Sutherland-Hodgman clip (:func:`polygonal_reference`).
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from cdgbrinkman.assembly import CsrMatrix, _kappa_range
from cdgbrinkman.polyspace import (ConditioningError, derivative_matrix,
                                   dim_poly, edge_point_count,
                                   fan_quadrature, gauss_segments,
                                   monomial_tables, poly_exponents,
                                   strictly_convex, vertex_fan_quadrature)
from cdgbrinkman.weakgrad import target_degree


def cell_vertices(mesh, c):
    """Coordinates of cell c's vertex loop, shape (n, 2)."""
    lo, hi = mesh.cell_offsets[c], mesh.cell_offsets[c + 1]
    return mesh.vertices[mesh.cell_vertex_ids[lo:hi]]


def final_rate(report, column):
    """The last rate of a ConvergenceReport column, NaN if there is none."""
    r = report.rates()[column]
    return r[-1] if r and r[-1] is not None else float("nan")


class MonomialBasis:
    """Centered scaled monomials of total degree <= m on one cell.

    Parameters
    ----------
    degree : int
    center : (2,) array, the cell centroid
    scale : float, the cell diameter hT
    """

    def __init__(self, degree, center, scale):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = int(degree)
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.dim = dim_poly(self.degree)
        self.exponents = poly_exponents(self.degree)

    def _local(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.center) / self.scale

    def values(self, points):
        """Value table of shape (dim, npoints)."""
        return monomial_tables(self._local(points), self.degree)

    def gradients(self, points):
        """Gradient tables (d/dx, d/dy), each of shape (dim, npoints).

        Includes the 1/hT chain-rule factor.
        """
        x, y = self._local(points).T
        p, q = self.exponents.T[:, :, None]
        # each monomial differentiated term by term, apart from the library
        dx = p * x ** np.maximum(p - 1, 0) * y ** q
        dy = q * x ** p * y ** np.maximum(q - 1, 0)
        return dx / self.scale, dy / self.scale


class QuadratureRule:
    """Points (n, 2) or (n,) with weights summing to the region measure."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def integrate(self, values):
        """Weighted sum along the last axis of ``values``."""
        return np.asarray(values) @ self.weights


def cell_quadrature(vertices, exactness):
    """Quadrature on a CCW polygon, star-shaped about its area centroid,
    exact for degree <= exactness.

    The polygon is fanned into triangles from its centroid, computed by the
    formula ``Mesh`` uses (see :func:`fan_quadrature`).
    """
    pts = np.asarray(vertices, dtype=float)[None]
    x, y = pts[..., 0], pts[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    area2 = cross.sum(axis=1)
    centroid = np.column_stack(
        [((x + xn) * cross).sum(axis=1) / (3.0 * area2),
         ((y + yn) * cross).sum(axis=1) / (3.0 * area2)])
    pts, wts = fan_quadrature(pts, centroid, exactness)
    return QuadratureRule(pts[0], wts[0])


def edge_quadrature(p0, p1, exactness):
    """Gauss rule with ceil((exactness+1)/2) points on the segment p0->p1.

    Weights sum to the segment length.
    """
    p0 = np.asarray(p0, dtype=float)[None]
    p1 = np.asarray(p1, dtype=float)[None]
    pts, wts = gauss_segments(p0, p1, edge_point_count(exactness))
    return QuadratureRule(pts[0], wts[0])


def gram_matrix(basis, rule):
    """Inner-product matrix of ``basis`` under ``rule`` (symmetric PD)."""
    vals = basis.values(rule.points)
    g = (vals * rule.weights) @ vals.T
    return 0.5 * (g + g.T)


def gram_cholesky(gram, where=""):
    """Cholesky factor of a Gram matrix; failure raises ConditioningError."""
    try:
        return cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"Gram matrix not SPD{' for ' + where if where else ''} "
            f"(size {gram.shape[0]})") from exc


def gram_solve(chol, rhs):
    """Solve G x = rhs given the factor from :func:`gram_cholesky`.

    The solve is backward stable: the polynomial that ``x`` represents is
    accurate to roundoff in the G-norm, but the coefficients themselves
    carry relative errors up to about cond(G) * eps.  Scaled monomials of
    high degree reach cond(G) ~ 1e12 (degree 8 on hexagons), which is why
    the discretization orthonormalizes its cell bases once, at build, and
    needs no Gram solve afterwards.
    """
    return cho_solve(chol, rhs)


def edge_average(minus_vals, plus_vals=None, boundary_value=None):
    """{v} at edge points: two-sided mean, or the boundary-edge trace.

    ``boundary_value`` replaces the trace on boundary edges (0.0 for the
    homogeneous velocity space, prescribed data for the lifting); None keeps
    the cell's own trace (pressure rule).
    """
    if plus_vals is not None:
        return 0.5 * (minus_vals + plus_vals)
    if boundary_value is None:
        return minus_vals
    return np.broadcast_to(boundary_value, np.shape(minus_vals)).astype(float)


def normal_jump(minus_vec, plus_vec, normal):
    """[v] = v_minus . n + v_plus . (-n) for vector traces (n out of minus).

    On boundary edges pass ``plus_vec=None``: [v] = v|_e . n.
    """
    j = minus_vec @ normal
    if plus_vec is not None:
        j = j - plus_vec @ normal
    return j


def scalar_jump(minus_vals, plus_vals, normal):
    """[[q]] = q_minus n + q_plus (-n), a vector per edge point."""
    d = minus_vals if plus_vals is None else minus_vals - plus_vals
    return d[:, None] * normal[None, :]


def jump_stabilizer(disc, tables):
    """Dense S = sum over interior edges e of h <[[psi_b]], [[psi_a]]>_e.

    Each pressure basis function's jump is taken point by point with
    :func:`scalar_jump` at an edge Gauss rule of its own; ``tables(cell,
    points, dim)`` gives the leading ``dim`` basis functions of ``cell`` at
    ``points``, and h is the global mesh size.
    """
    mesh, dp = disc.mesh, disc.dim_p
    S = np.zeros((disc.n_pressure_dofs, disc.n_pressure_dofs))
    for e in mesh.interior_edge_ids:
        minus, plus = mesh.edge_cells[e]
        rule = edge_quadrature(*mesh.vertices[mesh.edge_vertices[e]],
                               2 * disc.k)
        n = mesh.edge_normals[e]
        jumps, dofs = [], []
        for cell in (minus, plus):
            for a, vals in enumerate(tables(cell, rule.points, dp)):
                pair = (vals, 0 * vals) if cell == minus else (0 * vals, vals)
                jumps.append(scalar_jump(*pair, n))
                dofs.append(disc.pressure_dofs[cell, a])
        for i, ji in zip(dofs, jumps):
            for j, jj in zip(dofs, jumps):
                S[i, j] += mesh.h * rule.integrate((ji * jj).sum(axis=1))
    return S


def to_scipy(block):
    """A ``CsrMatrix`` block as a scipy CSR matrix."""
    return sp.csr_matrix((block.data, block.indices, block.indptr),
                         shape=block.shape)


def from_scipy(matrix):
    """A scipy sparse matrix as a ``CsrMatrix``, duplicates summed."""
    m = sp.csr_matrix(matrix, copy=True)
    m.sum_duplicates()
    return CsrMatrix(m.indptr, m.indices, m.data, m.shape)


def system_matrix(system, constrained=True):
    """The full symmetric indefinite matrix of a system, CSC: K bordered by
    the mean constraint m, or K alone."""
    A, B, S = map(to_scipy, (system.A, system.B, system.S))
    if constrained:
        mc = sp.csc_matrix(system.m[:, None])
        blocks = [[A, B, None], [B.T, -S, mc], [None, mc.T, None]]
    else:
        blocks = [[A, B], [B.T, -S]]
    return sp.bmat(blocks, format="csc")


def system_rhs(system, constrained=True):
    """The right-hand side [F; G; 0] of a system, or [F; G]."""
    if constrained:
        return np.concatenate([system.F, system.G, [0.0]])
    return np.concatenate([system.F, system.G])


def symmetry_defect(system):
    """max |M - M^T| over a system's full constrained matrix."""
    M = system_matrix(system)
    d = (M - M.T).tocoo()
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def validate_kappa(problem, points):
    """Sample a problem's kappa^{-1}, finite and positive; returns the
    sampled range (min, max)."""
    return _kappa_range(problem.kappa_inv_at(points), points)


class CellTables:
    """One cell's tables in a Discretization, read through its key.

    ``cls`` and ``ci`` are its shape class and that class's index,
    ``slot`` its row in the class's per-cell arrays (``points``,
    ``weights``) and ``key`` its row in the per-key ones: ``transform``,
    ``phi``, ``vx``, ``vy`` and ``scale``.  ``basis`` holds the scaled
    monomials of degree ``j`` about the cell's centroid.
    """

    def __init__(self, disc, cell):
        self.disc, self.cell = disc, cell
        self.ci = next(i for i, c in enumerate(disc.classes)
                       if cell in c.cells)
        cls = self.cls = disc.classes[self.ci]
        self.slot = int(np.flatnonzero(cls.cells == cell)[0])
        self.key = int(cls.key[self.slot])
        self.j, self.dim = cls.j, cls.dim
        self.points = cls.points[self.slot]
        self.weights = cls.weights[self.slot]
        for name in ("transform", "phi", "vx", "vy", "scale"):
            setattr(self, name, getattr(cls, name)[self.key])
        self.basis = MonomialBasis(cls.j, disc.mesh.cells.centroid[cell],
                                   self.scale)

    def map(self, maps):
        """The cell's (r, dt, (1 + ne) df) of per-class maps such as
        ``disc.vel``, ``disc.pre`` or ``disc.jump_maps()``."""
        return maps[self.ci][self.key]

    def columns(self, table):
        """The DOF columns of the cell's maps (see ``disc.columns``)."""
        return self.disc.columns(self.cls, table)[self.slot]

    def tables(self, points, dim, grad=False):
        """The leading ``dim`` basis functions at ``points``, or their x and
        y derivatives with ``grad``: polyref monomials times the key's
        transform."""
        raw = (self.basis.gradients(points) if grad
               else [self.basis.values(points)])
        out = [self.transform[:dim, :dim] @ r[:dim] for r in raw]
        return out if grad else out[0]


def own_basis(disc, cell, degree):
    """Cell ``cell``'s orthonormal basis of ``degree`` rebuilt from its own
    geometry: monomials about its centroid over its diameter,
    orthonormalized by the Cholesky factor L of their Gram matrix on its
    centroid fan rule of the Discretization's exactness.  Returns the data
    rule, the MonomialBasis, L and the transform L^{-1}.  The data rule is
    the first-vertex fan of the same exactness where every loop of the
    cell's class has four or more strictly convex corners, and the centroid
    fan otherwise."""
    mesh = disc.mesh
    centroid = mesh.cells.centroid[cell]
    loop = cell_vertices(mesh, cell)[None]
    exactness = 2 * degree + disc.cell_exactness_bump
    rule = QuadratureRule(*(a[0] for a in fan_quadrature(
        loop, centroid[None], exactness)))
    basis = MonomialBasis(degree, centroid, mesh.cells.diameter[cell])
    chol = np.linalg.cholesky(gram_matrix(basis, rule))
    cls = next(c for c in disc.classes if cell in c.cells)
    loops = mesh.vertices[mesh.cell_vertex_ids[
        mesh.cell_offsets[cls.cells, None] + np.arange(cls.ne)]]
    if cls.ne >= 4 and strictly_convex(loops).all():
        rule = QuadratureRule(*(a[0] for a in vertex_fan_quadrature(
            loop, exactness)))
    return rule, basis, chol, solve_triangular(chol, np.eye(len(chol)),
                                               lower=True)


def own_maps(disc, cell):
    """Cell ``cell``'s velocity, pressure and jump maps, laid out as
    ``CellTables.map`` returns them, rebuilt from its own and its
    neighbours' :func:`own_basis`: the volume moments by the Cholesky
    formula of the weakgrad docstring, the edge moments by Gauss rules."""
    mesh, k, dk, dp = disc.mesh, disc.k, disc.dim_k, disc.dim_p
    lo, hi = mesh.cell_offsets[cell], mesh.cell_offsets[cell + 1]
    ne = hi - lo
    j = target_degree(ne, k)
    _, basis, chol, T = own_basis(disc, cell, j)
    h = basis.scale
    vol = [T @ derivative_matrix(j, d) @ chol[:, :dk] / h for d in (0, 1)]
    own, nbr, normals, inner = [], [], [], []
    for e in mesh.cell_edge_ids[lo:hi]:
        rule = edge_quadrature(*mesh.vertices[mesh.edge_vertices[e]],
                               2 * j + 2 * k)
        phi = T @ basis.values(rule.points)
        wphi = phi * rule.weights
        own.append(wphi @ phi[:dk].T)
        minus, plus = mesh.edge_cells[e]
        other = plus if minus == cell else minus
        normals.append(mesh.edge_normals[e] * (1.0 if minus == cell else -1.0))
        inner.append(other >= 0)
        if other >= 0:
            ob = MonomialBasis(k, mesh.cells.centroid[other],
                               mesh.cells.diameter[other])
            ot = own_basis(disc, other, k)[3]
            nbr.append(wphi @ (ot @ ob.values(rule.points)).T)
        else:
            nbr.append(np.zeros_like(own[-1]))

    def gradient(df, dt, boundary):
        W = np.zeros((2, dt, ne + 1, df))
        for d in (0, 1):
            W[d, :, 0] = -vol[d][:dt, :df]
            for i in range(ne):
                n = normals[i][d]
                W[d, :, 0] += n * (0.5 if inner[i] else boundary) * own[i][
                    :dt, :df]
                W[d, :, i + 1] = n * 0.5 * nbr[i][:dt, :df]
        return W.reshape(2, dt, -1)

    jump = np.zeros((1, dp, ne + 1, dp))
    for i in range(ne):
        if inner[i]:
            jump[0, :, 0] += mesh.h * own[i][:dp, :dp]
            jump[0, :, i + 1] = -mesh.h * nbr[i][:dp, :dp]
    return (gradient(dk, dim_poly(j), 0.0), gradient(dp, dk, 1.0),
            jump.reshape(1, dp, -1))


def project_tensor(disc, grad_exact):
    """Per-cell projection of a 2x2 tensor field onto the target space: a
    list over cells of the (2, 2, dim_j) coefficients of each entry in the
    cell's weak-gradient basis, read from ``disc.cell_moments``."""
    out = [None] * disc.mesh.n_cells
    values = np.asarray(grad_exact(disc.cell_points), dtype=float)
    for cls, coef in zip(disc.classes, disc.cell_moments(values)):
        for c, cc in zip(cls.cells, coef):
            out[c] = cc
    return out


def shoelace(pts):
    """Signed area of one vertex loop ``pts`` (n, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def clip_to_unit_square(poly):
    """Sutherland-Hodgman clip of one convex CCW polygon to [0,1]^2, then
    :func:`dedupe_loop`; None if less than a polygon is left."""
    halfplanes = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), -1.0),
                  (np.array([0.0, 1.0]), 0.0), (np.array([0.0, -1.0]), -1.0)]
    pts = list(poly)
    for nrm, c in halfplanes:
        if not pts:
            return None
        out = []
        prev = pts[-1]
        dprev = np.dot(nrm, prev) - c
        for cur in pts:
            dcur = np.dot(nrm, cur) - c
            if dcur >= -1e-15:
                if dprev < -1e-15:
                    t = dprev / (dprev - dcur)
                    out.append(prev + t * (cur - prev))
                out.append(cur)
            elif dprev >= -1e-15:
                t = dprev / (dprev - dcur)
                out.append(prev + t * (cur - prev))
            prev, dprev = cur, dcur
        pts = out
    if len(pts) < 3:
        return None
    return dedupe_loop(np.array(pts))


def dedupe_loop(pts, tol=1e-12):
    """Drop each point within ``tol`` of the last one kept, then a last
    point within ``tol`` of the first; None if fewer than 3 are left."""
    keep = []
    for p in pts:
        if not keep or np.hypot(*(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= tol:
        keep.pop()
    if len(keep) < 3:
        return None
    return np.array(keep)


def polygonal_reference(n_div):
    """``(vertices, cell_offsets, cell_vertex_ids)`` of
    ``generate_polygonal(n_div)``, built hexagon by hexagon: each lattice
    hexagon is clipped on its own and kept if its area exceeds 1e-12 a b,
    and points that round to the same multiple of 1e-12 are one vertex,
    numbered by first occurrence."""
    nx = int(n_div)
    ny = 2 * max(1, round(nx / math.sqrt(3.0)))
    a, b = 1.0 / nx, 1.0 / ny
    y_side = (b * b - 0.25 * a * a) / (2.0 * b)
    y_top = (b * b + 0.25 * a * a) / (2.0 * b)
    hexagon = np.array([
        (0.5 * a, -y_side), (0.5 * a, y_side), (0.0, y_top),
        (-0.5 * a, y_side), (-0.5 * a, -y_side), (0.0, -y_top),
    ])
    number, vertices, offsets, ids = {}, [], [0], []
    for r in range(ny + 1):
        off = 0.5 * a if r % 2 else 0.0
        for i in range(-1, nx + 2):
            poly = clip_to_unit_square(hexagon + np.array([i * a + off, r * b]))
            if poly is None or shoelace(poly) <= 1e-12 * a * b:
                continue
            for p in poly:
                key = tuple(np.rint(p / 1e-12).astype(np.int64).tolist())
                if key not in number:
                    number[key] = len(vertices)
                    vertices.append(p)
                ids.append(number[key])
            offsets.append(len(ids))
    return np.array(vertices), np.array(offsets), np.array(ids)
