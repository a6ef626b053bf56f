"""Discrete weak gradients on stacked orthonormal cell bases.

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

Cell bases: on every cell, the scaled monomials of degree j are
orthonormalized by their Gram-Cholesky factor, so every Gram matrix is
the identity and a projection's coefficients are its moments.  High
target degrees (n+k-1 = 8 on hexagons at k = 3) drive the monomial Gram
matrices to cond ~ 1e12; the orthonormal basis keeps the weak-gradient
maps and projections free of Gram solves.

Volume moments: with G = L L^T the Gram matrix of the scaled monomials m
on a cell of diameter h, T = L^{-1} the transform (phi = T m) and D_i the
exact matrix with d m_a / d xi_i = sum_b D_i[a, b] m_b (a derivative
lowers the degree, so the monomials span it),

    (d_i phi_a, phi_b) = (T D_i G T_k^T / h)[a, b] = (T D_i L_k / h)[a, b]

for the degree-k functions b, where L_k holds the leading dim_k columns
of L: G[:, :dim_k] T_k^T = L[:, :dim_k], as L^T is upper triangular and
T_k is the inverse of L's leading block.  So the moments cost no table
beyond the one that forms the Gram matrix.

Stacked layout: Discretization groups the cells by edge count into
ShapeClass objects, whose cells share the target degree j and the
quadrature size, and stacks their bases and weak-gradient maps as arrays
over the class's cells.  The degree-k and k-1 bases are the leading rows
of the degree-j table (graded monomial order; the lower-triangular
orthonormalizing transform keeps the nesting), so each point set is
evaluated once.  Half-edges (cell, local edge) are grouped per class by
edge point count, and all their points are also laid out flat with the
owner's degree-k values (``trace_k``) and the index of the same point seen
from the neighbour (``edge_twin``, -1 on the boundary), so two-sided edge
terms are gathers.
"""

import numpy as np

from .polyspace import (ConditioningError, derivative_matrix, dim_poly,
                        edge_point_count, fan_quadrature, gauss_segments,
                        monomial_tables)

__all__ = [
    "target_degree",
    "Discretization",
]


def target_degree(edge_count, k):
    """Weak-gradient degree on an n-gon: k+1 for triangles, n+k-1 otherwise."""
    return k + 1 if edge_count == 3 else edge_count + k - 1


# ---------------------------------------------------------------------------
# stacked per-shape-class data
# ---------------------------------------------------------------------------

def _trisolve(L, B):
    """Solve L X = B for stacked lower-triangular L.

    Row-by-row forward substitution, as a triangular LAPACK solve does,
    over the whole stack at once; B has shape (..., d, m) and broadcasts
    against L.
    """
    shape = np.broadcast_shapes(L.shape[:-2], np.shape(B)[:-2])
    X = np.array(np.broadcast_to(B, shape + np.shape(B)[-2:]), dtype=float)
    for r in range(L.shape[-1]):
        if r:
            X[..., r, :] -= (L[..., r, None, :r] @ X[..., :r, :])[..., 0, :]
        X[..., r, :] /= L[..., r, r, None]
    return X


def _values(coef, phi):
    """Values (nc nq, ...) of coefficients (nc, ..., d) of tables phi."""
    return np.einsum("c...d,cdq->cq...", coef, phi[:, :coef.shape[-1]]
                     ).reshape((-1,) + coef.shape[1:-1])


def _sum_rows(owner, rows, n):
    """Sums (n, m, d) of rows (P, m, d) by owner (P,; -1 drops a row)."""
    _, m, d = rows.shape
    owner = np.where(owner >= 0, owner, n)[:, None, None]
    index = (owner * m + np.arange(m)[:, None]) * d + np.arange(d)
    out = np.bincount(index.ravel(), rows.ravel(), minlength=(n + 1) * m * d)
    return out.reshape(n + 1, m, d)[:n]


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


class HalfEdgeGroup:
    """The half-edges of one shape class whose edges have ``q`` points.

    Per half-edge: ``slot``/``local`` in the class arrays, ``edge``,
    ``owner``, its outward ``normal`` and Gauss ``points`` (a view of the
    flat ``edge_points``) and ``weights`` (rows ``start`` to ``stop`` of the
    flat edge arrays, q per half-edge);
    ``phi`` (ng, dim_j, q) is the owner's basis there.  ``own_m`` and
    ``nbr_m`` (ng, dim_j, dim_k) are the edge moments <phi_a, psi_b> against
    the owner's and the neighbour's degree-k basis (zero on the boundary).
    """


class ShapeClass:
    """Stacked data of the nc cells ``cells`` (ascending) with ``ne`` edges.

    ``positions`` (nc, ne) locate the cells' loops in the mesh's CSR
    arrays (see ``Mesh.shape_classes``).  Per cell, along the first axis:
    ``edges``, ``nbr`` (the neighbour across each local edge, -1 on the
    boundary) and outward ``normals``; quadrature ``points`` (nc, nq, 2)
    and ``weights`` (nc, nq), views of the flat ``cell_points`` and
    ``cell_weights``; the lower-triangular ``transform`` (nc, dim, dim),
    the inverse of the cells' monomial Gram Cholesky factors, which maps
    the scaled monomials of degree ``j`` to the orthonormal basis; its values ``phi`` (nc, dim, nq); and the
    volume moments ``vx``/``vy`` (nc, dim, dim_k) of (d_i phi_a, phi_b),
    ``transform @ D_i @ L[..., :dim_k] / h`` with L the Gram Cholesky
    factor and D_i the monomials' derivative matrix (see the module
    docstring).
    """

    def __init__(self, disc, edge_count, cells, positions):
        mesh, k = disc.mesh, disc.k
        self.ne = edge_count
        self.cells = cells
        self.j = target_degree(edge_count, k)
        self.dim = dim_poly(self.j)
        self.edges = mesh.cell_edge_ids[positions]
        ends = mesh.edge_cells[self.edges]
        minus = ends[..., 0] == cells[:, None]
        self.nbr = np.where(minus, ends[..., 1], ends[..., 0])
        self.normals = (np.where(minus, 1.0, -1.0)[..., None]
                        * mesh.edge_normals[self.edges])
        verts = mesh.vertices[mesh.cell_vertex_ids[positions]]
        self.points, self.weights = fan_quadrature(
            verts, mesh.cells.centroid[cells],
            2 * self.j + disc.cell_exactness_bump)
        scale = mesh.cells.diameter[cells][:, None, None]
        local = (self.points - mesh.cells.centroid[cells][:, None, :]) / scale
        raw = monomial_tables(local, self.j)
        gram = (raw * self.weights[:, None, :]) @ raw.transpose(0, 2, 1)
        gram = 0.5 * (gram + gram.transpose(0, 2, 1))
        chol = _cholesky(gram, cells, self.j)
        self.transform = _trisolve(chol, np.eye(self.dim))
        self.phi = self.transform @ raw
        # the volume moments from the factor (see the module docstring)
        lk = chol[..., :disc.dim_k] / scale
        self.vx, self.vy = (
            self.transform @ (derivative_matrix(self.j, d) @ lk)
            for d in (0, 1))
        self.groups = []


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

    Every cell basis is orthonormal (see the module docstring), so DOF
    vectors hold coefficients in those bases.  ``classes`` holds the
    ShapeClass objects, ``vel``/``pre`` the per-class maps (see
    :meth:`weak_gradient`) of the velocity (field k, target j, zero
    boundary average) and pressure (field k-1, target k, own boundary
    trace) weak gradients, and
    ``velocity_dofs`` (n_cells, 2, dim_k) / ``pressure_dofs`` (n_cells,
    dim_p) each cell's DOF indices.  Flat arrays over all cell quadrature
    points: ``cell_points``, ``cell_weights``, ``cell_owner``; over all
    half-edge points: ``edge_points``, ``edge_weights``, ``edge_owner``,
    ``edge_normal`` (out of the owner), ``edge_index``, ``edge_twin`` and
    ``trace_k``.

    Assembly and analysis read the classes through the kernels
    :meth:`cell_moments`, :meth:`cell_values`, :meth:`edge_moments`,
    :meth:`edge_values`, :meth:`apply` and :meth:`apply_transpose`.
    """

    def __init__(self, mesh, k, cell_exactness_bump=2, edge_exactness_bump=2):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.mesh = mesh
        self.k = int(k)
        self.cell_exactness_bump = int(cell_exactness_bump)
        n = mesh.n_cells
        # DOF layout: velocity blocks per cell (x-comp then y-comp), then
        # pressure blocks per cell
        self.velocity_dofs = np.arange(2 * self.dim_k * n).reshape(
            n, 2, self.dim_k)
        self.pressure_dofs = np.arange(self.dim_p * n).reshape(n, self.dim_p)
        self.classes = [ShapeClass(self, *cls) for cls in mesh.shape_classes()]
        self.cell_points = np.concatenate(
            [c.points.reshape(-1, 2) for c in self.classes])
        self.cell_weights = np.concatenate(
            [c.weights.ravel() for c in self.classes])
        self.cell_owner = np.concatenate(
            [np.repeat(c.cells, c.weights.shape[1]) for c in self.classes])
        self._split = np.cumsum([c.weights.size for c in self.classes])[:-1]
        # one copy of the points and weights: the classes keep views
        for cls, points, weights in zip(self.classes,
                                        self.split(self.cell_points),
                                        self.split(self.cell_weights)):
            cls.points, cls.weights = points, weights
        # shared edge rules: exactness covers both incident target degrees
        cell_j = np.empty(n, dtype=np.int64)
        for cls in self.classes:
            cell_j[cls.cells] = cls.j
        ends = mesh.edge_cells
        jmax = np.maximum(cell_j[ends[:, 0]],
                          np.where(ends[:, 1] >= 0, cell_j[ends[:, 1]], 0))
        self._build_half_edges(
            edge_point_count(jmax + k + edge_exactness_bump))
        self._tk = np.empty((n, self.dim_k, self.dim_k))
        for cls in self.classes:
            self._tk[cls.cells] = cls.transform[:, :self.dim_k, :self.dim_k]
        self._maps = {}
        self.vel = self.weak_gradient(self.dim_k, None, "zero")
        self.pre = self.weak_gradient(self.dim_p, self.dim_k, "natural")

    def _build_half_edges(self, edge_npts):
        ends, geo = self.mesh.edge_vertices, self.mesh.cells
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
                local = ((g.points - geo.centroid[g.owner][:, None, :])
                         / geo.diameter[g.owner][:, None, None])
                g.phi = cls.transform[g.slot] @ monomial_tables(local, cls.j)
                g.side = (self.mesh.edge_cells[g.edge, 0]
                          != g.owner).astype(int)
                start_of[g.edge, g.side] = (g.start
                                            + g.q * np.arange(len(g.edge)))
                cls.groups.append(g)
                groups.append(g)

        def flat(name):
            return np.concatenate([np.repeat(getattr(g, name), g.q, axis=0)
                                   for g in groups])

        self.edge_points = np.concatenate(
            [g.points.reshape(-1, 2) for g in groups])
        for g in groups:
            g.points = self.edge_points[g.start:g.stop].reshape(g.points.shape)
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

    # -- weak-gradient and jump maps ------------------------------------------

    def weak_gradient(self, field, target, boundary):
        """Per-class maps of one scalar weak-gradient operator (cached).

        ``field`` is the number of leading basis functions of the field
        (at most dim_k), ``target`` that of the target space, None for the
        class's full degree-j basis; ``boundary`` is "zero" or "natural".
        Each map has shape (2, nc, dt, (1 + ne) df): it takes a cell's field
        coefficients followed by its neighbours' (see :meth:`columns`) to
        the coefficients of the two gradient components in the orthonormal
        target basis, which are also their moments against that basis.
        """
        if boundary not in ("zero", "natural"):
            raise ValueError("boundary must be 'zero' or 'natural'")
        key = (field, target, boundary)
        if key not in self._maps:
            self._maps[key] = [self._class_maps(cls, field, target, boundary)
                               for cls in self.classes]
        return self._maps[key]

    def _edge_blocks(self, cls, df, dt, inner, boundary, across):
        """Per local edge (nc, ne, dt, df): ``own_m`` times ``inner`` on
        interior and ``boundary`` on boundary edges, ``nbr_m`` times
        ``across``."""
        own = np.zeros((len(cls.cells), cls.ne, dt, df))
        nbr = np.zeros_like(own)
        for g in cls.groups:
            fac = np.where((g.twin[:, :1] >= 0)[..., None], inner, boundary)
            own[g.slot, g.local] = fac * g.own_m[:, :dt, :df]
            nbr[g.slot, g.local] = across * g.nbr_m[:, :dt, :df]
        return own, nbr

    def _class_maps(self, cls, df, dt, boundary):
        nc, ne = len(cls.cells), cls.ne
        dt = cls.dim if dt is None else dt
        own, nbr = self._edge_blocks(
            cls, df, dt, 0.5, 1.0 if boundary == "natural" else 0.0, 0.5)
        B = np.zeros((2, nc, dt, ne + 1, df))
        for d, vol in enumerate((cls.vx, cls.vy)):
            B[d, :, :, 0] = -vol[:, :dt, :df]
            for i in range(ne):
                n = cls.normals[:, i, d, None, None]
                B[d, :, :, 0] += n * own[:, i]
                B[d, :, :, i + 1] = n * nbr[:, i]
        return B.reshape(2, nc, dt, -1)

    def jump_maps(self):
        """Per-class maps (1, nc, dp, (1 + ne) dp), laid out as
        :meth:`weak_gradient`'s: each cell's rows of the stabilizer S.

        Row a of cell T is sum_e h <[[q]], [[psi_a]]>_e over T's interior
        edges.  [[psi_a]] . [[psi_b]] is psi_a psi_b within a cell and
        -psi_a psi_b across an edge: the leading dp x dp of the edge
        moments, scaled by h before the edges are summed."""
        dp, h = self.dim_p, self.mesh.h
        out = []
        for cls in self.classes:
            own, nbr = self._edge_blocks(cls, dp, dp, h, 0.0, -h)
            blocks = np.concatenate([own.sum(axis=1, keepdims=True), nbr],
                                    axis=1)
            out.append(blocks.transpose(0, 2, 1, 3).reshape(
                1, len(cls.cells), dp, -1))
        return out

    def _slots(self, cls):
        """Each cell of a class, then its neighbours (-1 on the boundary)."""
        return np.column_stack([cls.cells, cls.nbr])

    def columns(self, cls, table):
        """DOF columns of a class's maps: (nc, (1 + n) d), -1 on boundaries.

        ``table`` (n_cells, d) holds each cell's DOF indices, e.g.
        ``velocity_dofs[:, comp]`` or ``pressure_dofs``.
        """
        slots = self._slots(cls)
        cols = np.where(slots[..., None] >= 0, table[slots], -1)
        return cols.reshape(len(slots), -1)

    def apply(self, maps, coef):
        """Products of per-class maps (r, nc, dt, (1 + ne) df), such as
        ``vel``, ``pre`` or :meth:`jump_maps`, with coefficients (n_cells,
        ..., df) in DOF layout, e.g. ``u[velocity_dofs]``, boundary slots
        reading zero: per class (nc, ..., r, dt)."""
        coef = np.asarray(coef, dtype=float)
        padded = np.concatenate([coef, np.zeros((1,) + coef.shape[1:])])
        out = []
        for cls, mp in zip(self.classes, maps):
            loc = np.moveaxis(padded[self._slots(cls)], 1, -2)
            shape = loc.shape[:-2] + mp.shape[:1] + mp.shape[2:3]
            loc = loc.reshape(len(loc), -1, 1, mp.shape[-1], 1)
            out.append((np.moveaxis(mp, 1, 0)[:, None] @ loc).reshape(shape))
        return out

    def apply_transpose(self, maps, coef):
        """The transpose of :meth:`apply`: per-class (nc, ..., r, dt) to
        (n_cells, ..., df), summed over the maps that read each cell."""
        owners, rows = [], []
        for cls, mp, c in zip(self.classes, maps, coef):
            r, nc, dt, _ = mp.shape
            prod = (c.reshape(nc, -1, r, dt).transpose(2, 0, 1, 3) @ mp).sum(0)
            m, slots = prod.shape[1], self._slots(cls)
            rows.append(prod.reshape(nc, m, cls.ne + 1, -1)
                        .transpose(0, 2, 1, 3).reshape(slots.size, m, -1))
            owners.append(slots.ravel())
        out = _sum_rows(np.concatenate(owners), np.concatenate(rows),
                        self.mesh.n_cells)
        return out.reshape(out.shape[:1] + c.shape[1:-2] + out.shape[-1:])

    # -- cell and edge kernels ------------------------------------------------

    def split(self, values):
        """Per-class (nc, nq, ...) views of values at ``cell_points``."""
        return [v.reshape(c.weights.shape + values.shape[1:])
                for c, v in zip(self.classes, np.split(values, self._split))]

    def cell_moments(self, values, d=None):
        """Moments of values (n_points, ...) at ``cell_points`` against each
        cell's leading d <= dim_k basis functions, (n_cells, ..., d) in DOF
        layout: the coefficients of the L2 projection.  With d None, per
        class (nc, ..., dim_j) against the degree-j target basis of ``vel``.
        """
        values = np.asarray(values, dtype=float)
        moments = []
        for cls, v in zip(self.classes, self.split(values)):
            nc, nq = cls.weights.shape
            m = cls.phi[:, :d] @ (cls.weights[..., None]
                                  * v.reshape(nc, nq, -1))
            moments.append(m.transpose(0, 2, 1).reshape(
                (nc,) + values.shape[1:] + (-1,)))
        if d is None:
            return moments
        out = np.empty((self.mesh.n_cells,) + values.shape[1:] + (d,))
        for cls, m in zip(self.classes, moments):
            out[cls.cells] = m
        return out

    def cell_values(self, coef):
        """Values (n_points, ...) at ``cell_points`` of the coefficients of
        each cell's leading d basis functions: (n_cells, ..., d) in DOF
        layout, or a per-class list of (nc, ..., d) as :meth:`apply` and
        :meth:`cell_moments` return."""
        if not isinstance(coef, list):
            coef = [coef[cls.cells] for cls in self.classes]
        return np.concatenate([_values(c, cls.phi)
                               for cls, c in zip(self.classes, coef)])

    def edge_values(self, coef):
        """Owner-side values (n_points, ...) at every half-edge point of
        coefficients as for :meth:`cell_values` (at most dim_k in DOF
        layout)."""
        if not isinstance(coef, list):
            return np.einsum("n...d,nd->n...", coef[self.edge_owner],
                             self.trace_k[:, :coef.shape[-1]])
        out = np.empty((len(self.edge_points),) + coef[0].shape[1:-1])
        for cls, c in zip(self.classes, coef):
            for g in cls.groups:
                out[g.start:g.stop] = _values(c[g.slot], g.phi)
        return out

    def edge_moments(self, values, d=None):
        """Moments of values (n_points, ...) at the half-edge points against
        the owners' basis, summed over each cell's boundary; laid out as
        :meth:`cell_moments` returns them for the same d."""
        values = np.asarray(values, dtype=float)
        wv = (self.edge_weights.reshape((-1,) + (1,) * (values.ndim - 1))
              * values).reshape(len(values), -1)
        if d is not None:
            out = _sum_rows(self.edge_owner,
                            self.trace_k[:, None, :d] * wv[..., None],
                            self.mesh.n_cells)
            return out.reshape(out.shape[:1] + values.shape[1:] + (d,))
        moments = []
        for cls in self.classes:
            m = np.zeros((len(cls.cells), cls.dim, wv.shape[1]))
            for g in cls.groups:
                v = wv[g.start:g.stop].reshape(len(g.slot), g.q, -1)
                h = np.flatnonzero(v.any(axis=(1, 2)))  # skip zero data
                np.add.at(m, g.slot[h], g.phi[h] @ v[h])
            moments.append(m.transpose(0, 2, 1).reshape(
                m.shape[:1] + values.shape[1:] + (-1,)))
        return moments

    def boundary_values(self, fn):
        """``fn`` at the boundary half-edge points; zero at interior ones."""
        bnd = self.edge_twin < 0
        vals = np.asarray(fn(self.edge_points[bnd]), dtype=float)
        out = np.zeros((len(bnd),) + vals.shape[1:])
        out[bnd] = vals
        return out

    def lifting(self, g_values):
        """lift(g), laid out as ``apply(vel, ...)``, of Dirichlet data g at
        the half-edge points (see :meth:`boundary_values`): its moments are
        <g_comp, eta n_i> over each cell's boundary edges, and the velocity
        weak gradient of a field with trace g is the homogeneous one plus
        lift(g)."""
        return self.edge_moments(g_values[:, :, None]
                                 * self.edge_normal[:, None, :])

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
        geo = self.mesh.cells
        local = ((points - geo.centroid[cells]) / geo.diameter[cells][:, None])
        t = monomial_tables(local[:, None, :], self.k)
        return (self._tk[cells] @ t)[..., 0]

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
