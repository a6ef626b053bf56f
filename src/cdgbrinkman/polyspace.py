"""Scaled monomial bases on cells and quadrature on polygons and edges.

Basis functions for degree m are the centered, scaled monomials
((x-xc)/hT)^p ((y-yc)/hT)^q with p+q <= m in graded lexicographic order, so
the degree-m table is the leading block of any higher-degree table.  Cell
rules integrate polynomials exactly up to a requested degree by fanning the
polygon into triangles from the centroid and mapping tensor Gauss points
through the collapsed-square (Duffy) transform.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "MonomialBasis",
    "QuadratureRule",
    "monomial_tables",
    "fan_quadrature",
    "gauss_segments",
    "ConditioningError",
    "dim_poly",
    "poly_exponents",
    "cell_quadrature",
    "edge_quadrature",
    "gram_matrix",
]


class ConditioningError(Exception):
    """A per-cell Gram matrix failed to factor as SPD."""


def dim_poly(m):
    """Dimension of P_m in 2D: (m+1)(m+2)/2."""
    return (m + 1) * (m + 2) // 2


@lru_cache(maxsize=64)
def poly_exponents(m):
    """Exponent pairs (p, q) of P_m in graded lex order, shape (dim, 2)."""
    exps = [(d - i, i) for d in range(m + 1) for i in range(d + 1)]
    return np.array(exps, dtype=np.int64)


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


def monomial_tables(local, degree, derivative=None):
    """Monomials of total degree <= ``degree`` at local coordinates.

    ``local`` has shape (..., npoints, 2); the table has shape
    (..., dim, npoints) in graded lex order, so every lower-degree table is
    its leading block.  ``derivative`` 0 or 1 gives the d/dxi or d/deta
    table instead (without any chain-rule factor).
    """
    x, y = local[..., 0], local[..., 1]
    xp, yp = [np.ones_like(x)], [np.ones_like(y)]
    for _ in range(degree):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    exps = poly_exponents(degree)
    out = np.zeros(x.shape[:-1] + (len(exps), x.shape[-1]))
    for r, (p, q) in enumerate(exps):
        row = out[..., r, :]
        if derivative is None:
            np.multiply(xp[p], yp[q], out=row)
        elif derivative == 0 and p:
            np.multiply(p * xp[p - 1], yp[q], out=row)
        elif derivative == 1 and q:
            np.multiply(q * xp[p], yp[q - 1], out=row)
    return out


class QuadratureRule:
    """Points (n, 2) or (n,) with weights summing to the region measure."""

    __slots__ = ("points", "weights")

    def __init__(self, points, weights):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    def integrate(self, values):
        """Weighted sum along the last axis of ``values``."""
        return np.asarray(values) @ self.weights


@lru_cache(maxsize=128)
def _gauss_1d(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=64)
def _duffy_reference(exactness):
    """Collapsed-square rule on the reference triangle: (xi, xi*eta, weight).

    The map x = a + xi*(b-a) + xi*eta*(c-b) has a Jacobian linear in xi, so
    n_xi = ceil((d+2)/2), n_eta = ceil((d+1)/2) Gauss points integrate total
    degree d exactly.  The weights include the xi factor of the Jacobian.
    """
    d = max(int(exactness), 0)
    x1, w1 = _gauss_1d((d + 3) // 2)
    x2, w2 = _gauss_1d((d + 2) // 2)
    XI, ETA = np.meshgrid(0.5 * (x1 + 1.0), 0.5 * (x2 + 1.0), indexing="ij")
    WA = np.outer(0.5 * w1, 0.5 * w2)
    return XI.ravel(), (XI * ETA).ravel(), WA.ravel() * XI.ravel()


def fan_quadrature(vertices, exactness):
    """Fan rules on a stack of simple CCW polygons with one vertex count.

    ``vertices`` has shape (m, n, 2).  Each polygon is fanned into the n
    triangles (v_i, v_i+1, centroid) and the reference rule is mapped onto
    each; returns points (m, n * nt, 2) and weights (m, n * nt), triangle by
    triangle.  A degenerate sub-triangle (area < 1e-14 * hT^2) raises
    ValueError naming the polygon's row and vertex.
    """
    pts = np.asarray(vertices, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area2 = cross.sum(axis=-1)
    c = np.stack([((x + xn) * cross).sum(axis=-1) / (3.0 * area2),
                  ((y + yn) * cross).sum(axis=-1) / (3.0 * area2)], axis=-1)
    diam2 = ((pts[:, :, None, :] - pts[:, None, :, :]) ** 2).sum(-1)
    v1 = np.roll(pts, -1, axis=1)
    e1 = v1 - pts
    e2 = c[:, None, :] - v1
    b = c[:, None, :] - pts
    tri_area = 0.5 * np.abs(e1[..., 0] * b[..., 1] - e1[..., 1] * b[..., 0])
    bad = tri_area < 1e-14 * diam2.max(axis=(1, 2))[:, None]
    if bad.any():
        m, i = np.argwhere(bad)[0]
        raise ValueError(f"degenerate fan triangle at polygon vertex {i} "
                         f"(row {m}, area {tri_area[m, i]:g})")
    xi, xe, wr = _duffy_reference(exactness)
    points = (pts[:, :, None, :] + xi[:, None] * e1[:, :, None, :]
              + xe[:, None] * e2[:, :, None, :])
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    m = len(pts)
    return points.reshape(m, -1, 2), (wr * jac[..., None]).reshape(m, -1)


def cell_quadrature(vertices, exactness):
    """Quadrature on a simple CCW polygon, exact for degree <= exactness.

    The polygon is fanned into triangles from its area centroid (see
    :func:`fan_quadrature`); a degenerate sub-triangle raises ValueError.
    """
    pts, wts = fan_quadrature(np.asarray(vertices, dtype=float)[None],
                              exactness)
    return QuadratureRule(pts[0], wts[0])


def edge_point_count(exactness):
    """Gauss points per edge for exactness ``exactness``: ceil((e+1)/2)."""
    return np.maximum(1, (np.asarray(exactness, dtype=np.int64) + 2) // 2)


def gauss_segments(p0, p1, npts):
    """Gauss rules with ``npts`` points on segments p0 -> p1 (each (m, 2)).

    Returns points (m, npts, 2) and weights (m, npts) summing to each
    segment's length.
    """
    x, w = _gauss_1d(npts)
    t = 0.5 * (x + 1.0)
    d = p1 - p0
    pts = p0[:, None, :] + t[:, None] * d[:, None, :]
    length = np.hypot(d[:, 0], d[:, 1])
    return pts, 0.5 * w * length[:, None]


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
