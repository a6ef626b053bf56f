"""Per-cell reference tools that the tests check the library against.

A scaled monomial basis on one cell, single-polygon and single-edge
quadrature rules built on the library's stacked ones, and Gram matrix
solves by scipy's Cholesky.  The library builds all of these stacked over
shape classes and never reads the per-cell forms; the tests use them as
independent references.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
        loc = self._local(points)
        return tuple(monomial_tables(loc, self.degree, d) / self.scale
                     for d in (0, 1))


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
