"""Per-cell reference tools that the tests check the library against.

A scaled monomial basis on one cell, single-polygon and single-edge
quadrature rules built on the library's stacked ones, and Gram matrix
solves by scipy's Cholesky.  The library builds all of these stacked over
shape classes and never reads the per-cell forms; the tests use them as
independent references.  Also the pointwise edge average and jumps, the
symmetry defect of an assembled system and a sampled check of kappa^{-1},
and the conversions between the library's sparse blocks and scipy's, with
the full saddle matrix and right-hand side built from them.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from cdgbrinkman.assembly import CsrMatrix, _kappa_range
from cdgbrinkman.polyspace import (ConditioningError, dim_poly,
                                   edge_point_count, fan_quadrature,
                                   gauss_segments, monomial_tables,
                                   poly_exponents)


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
    """Quadrature on a simple CCW polygon, exact for degree <= exactness.

    The polygon is fanned into triangles from its area centroid (see
    :func:`fan_quadrature`); a degenerate sub-triangle raises ValueError.
    """
    pts, wts = fan_quadrature(np.asarray(vertices, dtype=float)[None],
                              exactness)
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
    """Sample a problem's kappa^{-1}: finite and positive (scalar) or SPD
    (tensor); returns the sampled eigenvalue range (lambda_min,
    lambda_max)."""
    return _kappa_range(*problem.kappa_inv_at(points), points)
