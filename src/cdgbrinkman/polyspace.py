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
