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

__all__ = [
    "monomial_tables",
    "derivative_matrix",
    "fan_quadrature",
    "gauss_segments",
    "ConditioningError",
    "dim_poly",
    "poly_exponents",
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


def monomial_tables(local, degree):
    """Monomials of total degree <= ``degree`` at local coordinates.

    ``local`` has shape (..., npoints, 2); the table has shape
    (..., dim, npoints) in graded lex order, so every lower-degree table is
    its leading block.
    """
    x, y = local[..., 0], local[..., 1]
    xp, yp = [np.ones_like(x)], [np.ones_like(y)]
    for _ in range(degree):
        xp.append(xp[-1] * x)
        yp.append(yp[-1] * y)
    exps = poly_exponents(degree)
    out = np.empty(x.shape[:-1] + (len(exps), x.shape[-1]))
    for r, (p, q) in enumerate(exps):
        np.multiply(xp[p], yp[q], out=out[..., r, :])
    return out


@lru_cache(maxsize=64)
def derivative_matrix(degree, axis):
    """D (dim, dim) with d m_a / d xi_axis = sum_b D[a, b] m_b.

    The monomials are those of :func:`poly_exponents`; the entries are the
    exponents along ``axis`` (0 for xi, 1 for eta), so D is exact.
    """
    exps = poly_exponents(degree)
    e = exps[:, axis]
    lower = exps - np.eye(2, dtype=np.int64)[axis]
    d = lower.sum(axis=1)
    rows = np.flatnonzero(e)
    D = np.zeros((len(exps), len(exps)))
    D[rows, d[rows] * (d[rows] + 1) // 2 + lower[rows, 1]] = e[rows]
    D.flags.writeable = False
    return D


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


def fan_quadrature(vertices, centroids, exactness):
    """Fan rules on a stack of CCW polygons with one vertex count.

    ``vertices`` has shape (m, n, 2) and ``centroids`` (m, 2).  Each polygon
    is fanned into the n triangles (v_i, v_i+1, centroid) and the reference
    rule is mapped onto each; returns points (m, n * nt, 2) and weights
    (m, n * nt), triangle by triangle.  The rule covers the polygon only if
    it is star-shaped about its centroid, which ``Mesh.validate`` checks.
    """
    pts = np.asarray(vertices, dtype=float)
    v1 = np.roll(pts, -1, axis=1)
    e1 = v1 - pts
    e2 = np.asarray(centroids, dtype=float)[:, None, :] - v1
    xi, xe, wr = _duffy_reference(exactness)
    points = (pts[:, :, None, :] + xi[:, None] * e1[:, :, None, :]
              + xe[:, None] * e2[:, :, None, :])
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    m = len(pts)
    return points.reshape(m, -1, 2), (wr * jac[..., None]).reshape(m, -1)


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
    # a view of points (m, 2, npts): its long last axis runs faster
    pts = (p0[..., None] + d[..., None] * t).swapaxes(1, 2)
    length = np.hypot(d[:, 0], d[:, 1])
    return pts, 0.5 * w * length[:, None]
