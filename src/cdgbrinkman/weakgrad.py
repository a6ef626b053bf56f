"""Discrete weak gradients and the edge average/jump calculus.

Both weak-gradient operators reduce to one scalar primitive: for a piecewise
polynomial w of degree df, the lifted gradient on cell T is the pair
(g1, g2) in P_dt(T)^2 solving, for every test polynomial eta in P_dt(T),

    (g_i, eta)_T = -(w, d_i eta)_T + <w_avg, eta n_i>_dT,

where w_avg is the edge average: the two-sided mean on interior edges and,
on boundary edges, either zero (homogeneous velocity space), the cell's own
trace (pressure), or prescribed data (Dirichlet lifting).  The vector/tensor
operators apply this primitive to each component.

Per-cell target degrees: dt = k+1 on triangles and n+k-1 on n-gons for the
velocity operator; dt = k for the pressure operator.

Stacked layout: Discretization groups the cells by edge count into
ShapeClass objects, whose cells share the target degree j and the
quadrature size, and stacks their bases, Gram factors and weak-gradient
maps as arrays over the class's cells.  The degree-k and k-1 bases are the
leading rows of the degree-j table (graded monomial order; the
lower-triangular orthonormalizing transform keeps the nesting), so each
point set is evaluated once.  Half-edges (cell, local edge) are grouped
per class by edge point count, and all their points are also laid out
flat with the owner's degree-k values (``trace_k``) and the index of the
same point seen from the neighbour (``edge_twin``, -1 on the boundary),
so two-sided edge terms are gathers.
"""

from collections import namedtuple

import numpy as np

from .polyspace import (ConditioningError, dim_poly, edge_point_count,
                        fan_quadrature, gauss_segments, monomial_tables)

__all__ = [
    "edge_average",
    "normal_jump",
    "scalar_jump",
    "target_degree",
    "Discretization",
]


# ---------------------------------------------------------------------------
# pointwise average / jump helpers (trace values at shared edge points)
# ---------------------------------------------------------------------------

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


def target_degree(edge_count, k):
    """Weak-gradient degree on an n-gon: k+1 for triangles, n+k-1 otherwise."""
    return k + 1 if edge_count == 3 else edge_count + k - 1


# ---------------------------------------------------------------------------
# stacked per-shape-class data
# ---------------------------------------------------------------------------

def _trisolve(L, B, transpose=False):
    """Solve L X = B (or L^T X = B) for stacked lower-triangular L.

    Row-by-row substitution, as a triangular LAPACK solve does, over the
    whole stack at once; B has shape (..., d, m) and broadcasts against L.
    """
    shape = np.broadcast_shapes(L.shape[:-2], np.shape(B)[:-2])
    X = np.array(np.broadcast_to(B, shape + np.shape(B)[-2:]), dtype=float)
    d = L.shape[-1]
    for r in (range(d - 1, -1, -1) if transpose else range(d)):
        coef = L[..., r + 1:, r] if transpose else L[..., r, :r]
        if coef.shape[-1]:
            rest = X[..., r + 1:, :] if transpose else X[..., :r, :]
            X[..., r, :] -= (coef[..., None, :] @ rest)[..., 0, :]
        X[..., r, :] /= L[..., r, r, None]
    return X


def _cholesky(gram, cells, degree):
    """Stacked Cholesky factors; a failure names the first failing cell."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for c, g in zip(cells, gram):
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"Gram matrix not SPD for cell {c} degree {degree} "
                    f"(size {len(g)})") from exc
        raise


WeakGradientMaps = namedtuple("WeakGradientMaps", "B Z W")


class HalfEdgeGroup:
    """The half-edges of one shape class whose edges have ``q`` points.

    Per half-edge: ``slot``/``local`` in the class arrays, ``edge``,
    ``owner``, its outward ``normal`` and Gauss ``points``/``weights``
    (rows ``start`` to ``stop`` of the flat edge arrays, q per half-edge);
    ``phi`` (ng, dim_j, q) is the owner's basis there.  ``own_m`` and
    ``nbr_m`` (ng, dim_j, dim_k) are the edge moments <phi_a, psi_b> against
    the owner's and the neighbour's degree-k basis (zero on the boundary).
    """


class ShapeClass:
    """Stacked data of the nc cells ``cells`` (ascending) with ``ne`` edges.

    Per cell, along the first axis: ``edges``, ``nbr`` (the neighbour
    across each local edge, -1 on the boundary) and outward ``normals``;
    quadrature ``points`` (nc, nq, 2) and ``weights``; basis values ``phi``
    (nc, dim, nq) of degree ``j``; the Gram matrices ``gram`` and their
    lower Cholesky factors ``chol`` (nc, dim, dim), both None (identity)
    when ``transform`` maps raw monomials to an orthonormalized basis; and
    the volume moments ``vx``/``vy`` (nc, dim, dim_k) of (d_i phi_a, phi_b).
    """

    def __init__(self, disc, edge_count, cells):
        mesh, k = disc.mesh, disc.k
        self.ne = edge_count
        self.cells = cells
        self.j = target_degree(edge_count, k)
        self.dim = dim_poly(self.j)
        self.edges = np.array([mesh.cells[c].edge_ids for c in cells],
                              dtype=np.int64).reshape(len(cells), edge_count)
        ends = disc._edge_cells[self.edges]
        minus = ends[..., 0] == cells[:, None]
        self.nbr = np.where(minus, ends[..., 1], ends[..., 0])
        self.normals = (np.where(minus, 1.0, -1.0)[..., None]
                        * disc._edge_normals[self.edges])
        verts = mesh.vertices[np.array([mesh.cells[c].vertex_ids
                                        for c in cells])]
        self.points, self.weights = fan_quadrature(
            verts, 2 * self.j + disc.cell_exactness_bump)
        scale = disc.diameters[cells][:, None, None]
        local = (self.points - disc.centroids[cells][:, None, :]) / scale
        # one table of dim x nq per cell is kept; the two gradient tables
        # are made one at a time and dropped once their moments are taken
        raw = monomial_tables(local, self.j)
        w = self.weights[:, None, :]
        gram = (raw * w) @ raw.transpose(0, 2, 1)
        gram = 0.5 * (gram + gram.transpose(0, 2, 1))
        chol = _cholesky(gram, cells, self.j)
        if disc.orthonormalize:
            self.transform = _trisolve(chol, np.eye(self.dim))
            raw = self.transform @ raw
            self.gram = self.chol = None
        else:
            self.transform = None
            self.gram, self.chol = gram, chol
        self.phi = raw
        fw = (raw[:, :disc.dim_k] * w).transpose(0, 2, 1)
        moments = []
        for d in (0, 1):
            grad = monomial_tables(local, self.j, d)
            grad /= scale
            if self.transform is not None:
                grad = self.transform @ grad
            moments.append(grad @ fw)
        self.vx, self.vy = moments
        self.groups = []

    def values(self, coef):
        """Values at the quadrature points of per-cell coefficients.

        ``coef`` has shape (nc, ..., d) for the leading d basis functions;
        the result has shape (nc, nq, ...).
        """
        return np.einsum("c...d,cdq->cq...", coef,
                         self.phi[:, :coef.shape[-1]])

    def gram_solve(self, rhs):
        """Solve G x = rhs per cell for the leading block; rhs (nc, d, m)."""
        if self.chol is None:
            return rhs
        d = rhs.shape[-2]
        L = self.chol[:, :d, :d]
        return _trisolve(L, _trisolve(L, rhs), transpose=True)

    def mass_sq(self, coef):
        """Sum over the cells of coef^T G coef; ``coef`` (nc, ..., d)."""
        if self.gram is None:
            return float((coef ** 2).sum())
        d = coef.shape[-1]
        c = coef.reshape(len(coef), -1, d)
        return float((c * (c @ self.gram[:, :d, :d])).sum())


# ---------------------------------------------------------------------------
# whole-mesh discretization
# ---------------------------------------------------------------------------

class Discretization:
    """Immutable per-(mesh, k) cache of stacked bases and weak gradients.

    Parameters
    ----------
    mesh : Mesh
    k : int
        Velocity degree (pressure degree is k-1), k >= 1.
    orthonormalize : bool
        Replace scaled monomials by their Gram-Cholesky orthonormalization.

    ``classes`` holds the ShapeClass objects, ``vel``/``pre`` the per-class
    maps of the velocity (field k, target j, zero boundary average) and
    pressure (field k-1, target k, own boundary trace) weak gradients, and
    ``velocity_dofs`` (n_cells, 2, dim_k) / ``pressure_dofs`` (n_cells,
    dim_p) each cell's DOF indices.  Flat arrays over all cell quadrature
    points: ``cell_points``, ``cell_owner``; over all half-edge points:
    ``edge_points``, ``edge_weights``, ``edge_owner``, ``edge_normal`` (out
    of the owner), ``edge_index``, ``edge_twin`` and ``trace_k``.
    """

    def __init__(self, mesh, k, orthonormalize=False,
                 cell_exactness_bump=2, edge_exactness_bump=2):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.mesh = mesh
        self.k = int(k)
        self.orthonormalize = bool(orthonormalize)
        self.cell_exactness_bump = int(cell_exactness_bump)
        n = mesh.n_cells
        self.centroids = np.array([c.centroid for c in mesh.cells])
        self.diameters = np.array([c.diameter for c in mesh.cells])
        self._edge_cells = np.array(
            [(e.cell_minus, -1 if e.cell_plus is None else e.cell_plus)
             for e in mesh.edges], dtype=np.int64)
        self._edge_normals = np.array([e.normal for e in mesh.edges])
        # DOF layout: velocity blocks per cell (x-comp then y-comp), then
        # pressure blocks per cell, then one multiplier row
        self.velocity_dofs = np.arange(2 * self.dim_k * n).reshape(
            n, 2, self.dim_k)
        self.pressure_dofs = np.arange(self.dim_p * n).reshape(n, self.dim_p)
        counts = np.array([c.edge_count for c in mesh.cells])
        self.classes = [ShapeClass(self, ne, np.flatnonzero(counts == ne))
                        for ne in np.unique(counts)]
        self.cell_points = np.concatenate(
            [c.points.reshape(-1, 2) for c in self.classes])
        self.cell_owner = np.concatenate(
            [np.repeat(c.cells, c.weights.shape[1]) for c in self.classes])
        self._split = np.cumsum([c.weights.size for c in self.classes])[:-1]
        # shared edge rules: exactness covers both incident target degrees
        cell_j = np.array([target_degree(c, k) for c in counts])
        ends = self._edge_cells
        jmax = np.maximum(cell_j[ends[:, 0]],
                          np.where(ends[:, 1] >= 0, cell_j[ends[:, 1]], 0))
        self._build_half_edges(
            edge_point_count(jmax + k + edge_exactness_bump))
        if self.orthonormalize:
            self._tk = np.empty((n, self.dim_k, self.dim_k))
            for cls in self.classes:
                self._tk[cls.cells] = cls.transform[:, :self.dim_k,
                                                    :self.dim_k]
        else:
            self._tk = None
        self._maps = {}
        self.vel = self.weak_gradient(self.dim_k, None, "zero")
        self.pre = self.weak_gradient(self.dim_p, self.dim_k, "natural")

    def _build_half_edges(self, edge_npts):
        ends = self.mesh.edge_vertices
        start_of = np.full((self.mesh.n_edges, 2), -1)
        groups, start = [], 0
        for cls in self.classes:
            npts = edge_npts[cls.edges]
            for q in np.unique(npts):
                g = HalfEdgeGroup()
                g.slot, g.local = np.nonzero(npts == q)
                g.edge, g.owner = cls.edges[g.slot, g.local], cls.cells[g.slot]
                g.normal = cls.normals[g.slot, g.local]
                g.q, g.start = int(q), start
                g.stop = start = start + len(g.edge) * g.q
                g.points, g.weights = gauss_segments(
                    self.mesh.vertices[ends[g.edge, 0]],
                    self.mesh.vertices[ends[g.edge, 1]], g.q)
                local = ((g.points - self.centroids[g.owner][:, None, :])
                         / self.diameters[g.owner][:, None, None])
                g.phi = monomial_tables(local, cls.j)
                if cls.transform is not None:
                    g.phi = cls.transform[g.slot] @ g.phi
                g.side = (self._edge_cells[g.edge, 0] != g.owner).astype(int)
                start_of[g.edge, g.side] = (g.start
                                            + g.q * np.arange(len(g.edge)))
                cls.groups.append(g)
                groups.append(g)

        def flat(name):
            return np.concatenate([np.repeat(getattr(g, name), g.q, axis=0)
                                   for g in groups])

        self.edge_points = np.concatenate(
            [g.points.reshape(-1, 2) for g in groups])
        self.edge_weights = np.concatenate([g.weights.ravel() for g in groups])
        self.edge_owner, self.edge_normal, self.edge_index = (
            flat(name) for name in ("owner", "normal", "edge"))
        self.trace_k = np.concatenate(
            [g.phi[:, :self.dim_k].transpose(0, 2, 1).reshape(-1, self.dim_k)
             for g in groups])
        for g in groups:
            other = start_of[g.edge, 1 - g.side][:, None]
            g.twin = np.where(other >= 0, other + np.arange(g.q), -1)
            nbr = np.where(g.twin[..., None] >= 0, self.trace_k[g.twin], 0.0)
            wphi = g.phi * g.weights[:, None, :]
            g.own_m = wphi @ g.phi[:, :self.dim_k].transpose(0, 2, 1)
            g.nbr_m = wphi @ nbr
        self.edge_twin = np.concatenate([g.twin.ravel() for g in groups])

    # -- weak-gradient maps --------------------------------------------------

    def weak_gradient(self, field, target, boundary):
        """Per-class maps of one scalar weak-gradient operator (cached).

        ``field`` is the number of leading basis functions of the field
        (at most dim_k), ``target`` that of the target space, None for the
        class's full degree-j basis; ``boundary`` is "zero" or "natural".
        """
        if boundary not in ("zero", "natural"):
            raise ValueError("boundary must be 'zero' or 'natural'")
        key = (field, target, boundary)
        if key not in self._maps:
            self._maps[key] = [self._class_maps(cls, field, target, boundary)
                               for cls in self.classes]
        return self._maps[key]

    def _class_maps(self, cls, df, dt, boundary):
        nc, ne = len(cls.cells), cls.ne
        dt = cls.dim if dt is None else dt
        own = np.zeros((nc, ne, dt, df))
        nbr = np.zeros((nc, ne, dt, df))
        for g in cls.groups:
            inner = (g.twin[:, :1] >= 0)[..., None]
            fac = np.where(inner, 0.5, 1.0 if boundary == "natural" else 0.0)
            own[g.slot, g.local] = fac * g.own_m[:, :dt, :df]
            nbr[g.slot, g.local] = 0.5 * g.nbr_m[:, :dt, :df]
        B = np.zeros((2, nc, dt, ne + 1, df))
        for d, vol in enumerate((cls.vx, cls.vy)):
            B[d, :, :, 0] = -vol[:, :dt, :df]
            for i in range(ne):
                n = cls.normals[:, i, d, None, None]
                B[d, :, :, 0] += n * own[:, i]
                B[d, :, :, i + 1] = n * nbr[:, i]
        B = B.reshape(2, nc, dt, -1)
        if cls.chol is None:
            return WeakGradientMaps(B, B, B)
        L = cls.chol[:, :dt, :dt]
        Z = _trisolve(L, B)
        return WeakGradientMaps(B, Z, _trisolve(L, Z, transpose=True))

    def columns(self, cls, table):
        """DOF columns of a class's maps: (nc, (1 + n) d), -1 on boundaries.

        ``table`` (n_cells, d) holds each cell's DOF indices, e.g.
        ``velocity_dofs[:, comp]`` or ``pressure_dofs``.
        """
        slots = np.column_stack([cls.cells, cls.nbr])
        cols = np.where(slots[..., None] >= 0, table[slots], -1)
        return cols.reshape(len(slots), -1)

    def split(self, values):
        """Per-class (nc, nq, ...) views of values at ``cell_points``."""
        return [v.reshape(c.weights.shape + values.shape[1:])
                for c, v in zip(self.classes, np.split(values, self._split))]

    def boundary_values(self, fn):
        """``fn`` at the boundary half-edge points; zero at interior ones."""
        bnd = self.edge_twin < 0
        vals = np.asarray(fn(self.edge_points[bnd]), dtype=float)
        out = np.zeros((len(bnd),) + vals.shape[1:])
        out[bnd] = vals
        return out

    def boundary_lifting_rhs(self, g_values):
        """<g_comp, eta n_i> over each cell's boundary edges, per class.

        ``g_values`` holds the Dirichlet data at the half-edge points (see
        :meth:`boundary_values`).  Returns arrays (comp, i, nc, dim_j).  This
        is the inhomogeneous part of the velocity weak gradient: the full
        operator applied to a field with Dirichlet trace g decomposes as the
        homogeneous operator plus G^{-1} of this vector.
        """
        out = []
        for cls in self.classes:
            rhs = np.zeros((2, 2, len(cls.cells), cls.dim))
            for g in cls.groups:
                bnd = g.twin[:, 0] < 0
                if not bnd.any():
                    continue
                wg = g.weights[..., None] * g_values[g.start:g.stop].reshape(
                    -1, g.q, 2)
                m = g.phi[bnd] @ wg[bnd]
                n = g.normal[bnd]
                for comp in (0, 1):
                    for i in (0, 1):
                        np.add.at(rhs[comp, i], g.slot[bnd],
                                  n[:, i, None] * m[:, :, comp])
            out.append(rhs)
        return out

    def jump_points(self, edges="interior", weight="global-h"):
        """Half-edge points of an edge-jump sum and the factor h per point.

        Returns a mask that visits each summed edge once, from its minus
        side: interior edges, plus boundary edges for ``edges="all"``; and h
        at every half-edge point: the global mesh size ("global-h") or the
        edge's length ("edge-h").
        """
        if edges not in ("interior", "all"):
            raise ValueError("edges must be 'interior' or 'all'")
        if weight not in ("global-h", "edge-h"):
            raise ValueError("weight must be 'global-h' or 'edge-h'")
        take = self.edge_owner == self._edge_cells[self.edge_index, 0]
        take &= (self.edge_twin >= 0) | (edges == "all")
        if weight == "global-h":
            return take, np.full(len(take), self.mesh.h)
        lengths = np.array([e.length for e in self.mesh.edges])
        return take, lengths[self.edge_index]

    def edge_values(self, coef):
        """Owner-side values at every half-edge point.

        ``coef`` (n_cells, ..., d) holds per-cell coefficients of the leading
        d <= dim_k basis functions; the result has shape (n_points, ...).
        """
        d = coef.shape[-1]
        return np.einsum("n...d,nd->n...", coef[self.edge_owner],
                         self.trace_k[:, :d])

    # -- DOF layout -----------------------------------------------------------

    @property
    def dim_k(self):
        return dim_poly(self.k)

    @property
    def dim_p(self):
        return dim_poly(self.k - 1)

    @property
    def n_velocity_dofs(self):
        return 2 * self.dim_k * self.mesh.n_cells

    @property
    def n_pressure_dofs(self):
        return self.dim_p * self.mesh.n_cells

    # -- point evaluation ----------------------------------------------------

    def _point_basis(self, cells, points):
        local = ((points - self.centroids[cells])
                 / self.diameters[cells][:, None])
        t = monomial_tables(local[:, None, :], self.k)[..., 0]
        if self._tk is not None:
            t = (self._tk[cells] @ t[..., None])[..., 0]
        return t

    def velocity_values(self, u, cell, points):
        """Velocity (n, 2) at points (n, 2) inside ``cell``.

        ``cell`` is one cell index or one index per point.
        """
        points = np.atleast_2d(points)
        cells = np.broadcast_to(cell, len(points))
        return np.einsum("nrd,nd->nr", u[self.velocity_dofs[cells]],
                         self._point_basis(cells, points))

    def pressure_values(self, p, cell, points):
        """Pressure (n,) at points (n, 2) inside ``cell`` (as above)."""
        points = np.atleast_2d(points)
        cells = np.broadcast_to(cell, len(points))
        return np.einsum("nd,nd->n", p[self.pressure_dofs[cells]],
                         self._point_basis(cells, points)[:, :self.dim_p])
