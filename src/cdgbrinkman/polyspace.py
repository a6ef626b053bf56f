"""Scaled monomial bases on cells and quadrature on polygons and edges.

Basis functions for degree m are the centered, scaled monomials
((x-xc)/hT)^p ((y-yc)/hT)^q with p+q <= m in graded lexicographic order, so
the degree-m table is the leading block of any higher-degree table.  Cell
rules integrate polynomials exactly up to a requested degree by fanning the
polygon into triangles, from the centroid (n triangles, any polygon
star-shaped about it) or from the first vertex (n-2 triangles, convex
polygons), and mapping tensor Gauss points through the collapsed-square
(Duffy) transform.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "monomial_tables",
    "derivative_matrix",
    "fan_quadrature",
    "vertex_fan_quadrature",
    "strictly_convex",
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


def _legval(x, c):
    """The Legendre series c at x by numpy's Clenshaw recursion."""
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


def _legder(c):
    """The derivative's Legendre coefficients, as numpy's ``legder``."""
    c, n = c.copy(), len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


@lru_cache(maxsize=128)
def _gauss_1d(n):
    """Gauss-Legendre points and weights on [-1, 1], computed as numpy's
    ``leggauss`` computes them, which would import all of numpy.polynomial:
    the eigenvalues of the symmetric Jacobi matrix, one Newton step, then
    symmetrized points and weights scaled to sum to 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    dy, df = _legval(x, c), _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


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


def _triangle_rules(a, b, c, exactness):
    """The reference rule mapped onto stacked triangles (a, b, c), each
    corner (m, t, 2); returns points (m, t * nt, 2) and weights (m, t * nt),
    triangle by triangle."""
    e1, e2 = b - a, c - b
    xi, xe, wr = _duffy_reference(exactness)
    points = (a[:, :, None, :] + xi[:, None] * e1[:, :, None, :]
              + xe[:, None] * e2[:, :, None, :])
    jac = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    m = len(points)
    return points.reshape(m, -1, 2), (wr * jac[..., None]).reshape(m, -1)


def fan_quadrature(vertices, centroids, exactness):
    """Fan rules on a stack of CCW polygons with one vertex count.

    ``vertices`` has shape (m, n, 2) and ``centroids`` (m, 2).  Each polygon
    is fanned into the n triangles (v_i, v_i+1, centroid) and the reference
    rule is mapped onto each; returns points (m, n * nt, 2) and weights
    (m, n * nt), triangle by triangle.  The rule covers the polygon only if
    it is star-shaped about its centroid, which ``Mesh.validate`` checks.
    """
    pts = np.asarray(vertices, dtype=float)
    centre = np.asarray(centroids, dtype=float)[:, None, :]
    return _triangle_rules(pts, np.roll(pts, -1, axis=1),
                           np.broadcast_to(centre, pts.shape), exactness)


def vertex_fan_quadrature(vertices, exactness):
    """Fan rules from the first vertex on a stack of convex CCW polygons.

    ``vertices`` has shape (m, n, 2); each polygon is fanned into the n-2
    triangles (v_0, v_i, v_i+1), i = 1..n-2, with the rule of
    :func:`fan_quadrature`: points (m, (n-2) * nt, 2) and weights.  The
    rule covers the polygon only if it is convex (see
    :func:`strictly_convex`).
    """
    pts = np.asarray(vertices, dtype=float)
    return _triangle_rules(np.broadcast_to(pts[:, :1], pts[:, 2:].shape),
                           pts[:, 1:-1], pts[:, 2:], exactness)


def strictly_convex(vertices):
    """Per polygon of a stack (m, n, 2) of CCW loops: whether every corner
    turns strictly left (each cross product of consecutive edges > 0), so
    that collinear vertices count as not convex."""
    pts = np.asarray(vertices, dtype=float)
    e = np.roll(pts, -1, axis=1) - pts
    f = np.roll(e, -1, axis=1)
    return (e[..., 0] * f[..., 1] - e[..., 1] * f[..., 0] > 0).all(axis=1)


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
