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

Shared layout: Discretization groups the cells by edge count into
ShapeClass objects, whose cells share the target degree j and the
quadrature size.  Within a class, everything built per cell depends only
on the cell's vertex loop measured from its first vertex, on which of its
edges lie on the boundary, on its neighbours' shapes and offsets (first
vertex to first vertex), and on the direction in which each edge's Gauss
points run.  These make up the cell's congruence key, with coordinates
rounded at 1e-12 h.  On the generated meshes a class has a handful of
keys, so the bases, volume moments, half-edge tables and weak-gradient
maps are stacked once per key, built from the key's first cell, and a
per-cell ``key`` index reads them.  Every other cell of a key is that cell
translated: its basis center is its centroid, whose offset from its first
vertex agrees with the first cell's to roundoff (see
``Mesh._cell_geometry``), its quadrature points are that center plus the
key's points, and its weights are the key's.  A mesh without repeated
shapes simply gets one key per cell.

Two cell rules of one exactness (2j+2 by default): the Gram matrices,
transforms and volume moments are integrated on the centroid fan of n
triangles; the cells' quadrature points, at which f, kappa^{-1},
projections and norms are evaluated, come from the first-vertex fan of
n-2 triangles in a class of four or more edges whose keys' loops are all
strictly convex, and from the centroid fan otherwise (triangles,
collinear vertices, non-convex cells).  A Gram on the vertex fan moves
the transforms by roundoff that the brute-force oracle test rejects.

The degree-k and k-1 bases are the leading rows of the degree-j table
(graded monomial order; the lower-triangular orthonormalizing transform
keeps the nesting), so each point set is evaluated once.
A class has two point sets, read alike: its cells' quadrature points and
the Gauss points of their half-edges (cell, local edge).  Each is a block
of flat arrays, cell-major in key order with q points per cell, and has
per-key tables of the basis at the first cell's points; the class's
``batches`` meet those tables with the cells' data (see ``_batches``).  A
cell's half-edge points run local edge by local edge, edge_q each, the
most on any of the class's edges.  A key fixes each local edge's point
count, as it holds the boundary flags and the neighbours' shapes, and a
half-edge of fewer points repeats its last point at weight 0.  Each mesh
edge's Gauss rule is built once and both its half-edges copy it, so a
point equals the same point seen from the neighbour, whose index the flat
half-edge arrays also hold (``edge_twin``, -1 on the boundary): two-sided
edge terms are gathers.
"""

import numpy as np

from .mesh import _first_occurrence
from .polyspace import (ConditioningError, derivative_matrix, dim_poly,
                        edge_point_count, fan_quadrature, gauss_segments,
                        monomial_tables, strictly_convex,
                        vertex_fan_quadrature)

__all__ = [
    "target_degree",
    "Discretization",
]

# congruence keys round coordinates at this fraction of the mesh size h
_KEY_RESOLUTION = 1e-12
# the kernels broadcast a key's tables over its members from this many
# members on, and otherwise read them this many members at a time
_BROADCAST_MEMBERS = 8
_GATHER_MEMBERS = 256


def target_degree(edge_count, k):
    """Weak-gradient degree on an n-gon: k+1 for triangles, n+k-1 otherwise."""
    return k + 1 if edge_count == 3 else edge_count + k - 1


# ---------------------------------------------------------------------------
# congruence keys
# ---------------------------------------------------------------------------

def _grid(offsets, unit):
    return np.rint(offsets / unit).astype(np.int64)


def _keyed_classes(mesh):
    """Yield (ne, cells, positions, key, nbr, plus) per class of
    ``Mesh.shape_classes``, the cells ordered by their congruence key (see
    the module docstring), ascending within a key; ``key`` numbers the
    class's keys from 0, ``nbr`` (nc, ne) holds the neighbour across each
    local edge (-1 on the boundary) and ``plus`` whether the cell is the
    edge's plus cell (see ``Mesh.edge_cells``)."""
    unit = _KEY_RESOLUTION * mesh.h
    # each cell's first loop vertex, from which its key measures
    anchor = mesh.vertices[mesh.cell_vertex_ids[mesh.cell_offsets[:-1]]]
    classes = list(mesh.shape_classes())
    # shape ids, distinct across classes
    shape, base = np.empty(mesh.n_cells, np.int64), 0
    for ne, cells, pos in classes:
        loops = mesh.vertices[mesh.cell_vertex_ids[pos]] - anchor[cells, None]
        shape[cells] = base + _first_occurrence(
            _grid(loops, unit).reshape(len(cells), -1))[0]
        base += len(cells)
    for ne, cells, pos in classes:
        edges = mesh.cell_edge_ids[pos]
        ends = mesh.edge_cells[edges]
        plus = ends[..., 0] != cells[:, None]
        nbr = np.where(plus, ends[..., 0], ends[..., 1])
        inner = nbr >= 0
        offset = np.where(inner[..., None],
                          _grid(anchor[nbr] - anchor[cells, None], unit), 0)
        forward = mesh.cell_vertex_ids[pos] == mesh.edge_vertices[edges, 0]
        rows = np.column_stack([shape[cells], np.where(inner, shape[nbr], -1),
                                offset.reshape(len(cells), -1), forward])
        # numbered by first occurrence, so the cells keep their order as
        # far as their keys allow
        key = _first_occurrence(rows)[0]
        order = np.argsort(key, kind="stable")
        yield (ne, cells[order], pos[order], key[order], nbr[order],
               plus[order])


def _batches(key):
    """(key rows, member rows) pairs covering members sorted by ``key``, by
    which the kernels meet per-key tables with the members' data.  A key of
    at least _BROADCAST_MEMBERS members is a one-row slice that broadcasts
    over them.  The members between such keys go _GATHER_MEMBERS at a time:
    a piece whose members all have distinct keys is a slice of rows that
    lines up with them, and any other piece is the array of its members'
    keys, which gathers their rows."""
    counts = np.bincount(key)
    bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
    out, start = [], 0
    for k in np.flatnonzero(counts >= _BROADCAST_MEMBERS).tolist() + [None]:
        stop = bounds[-1] if k is None else bounds[k]
        for a in range(start, stop, _GATHER_MEMBERS):
            b = min(a + _GATHER_MEMBERS, stop)
            first, last = int(key[a]), int(key[b - 1])
            out.append((slice(first, last + 1) if last - first == b - a - 1
                        else key[a:b], slice(a, b)))
        if k is not None:
            out.append((slice(k, k + 1), slice(stop, bounds[k + 1])))
            start = bounds[k + 1]
    return out


# ---------------------------------------------------------------------------
# stacked per-shape-class data
# ---------------------------------------------------------------------------

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


class ShapeClass:
    """Stacked data of the nc cells ``cells`` with ``ne`` edges.

    The cells are ordered by their congruence ``key`` (nc,), which numbers
    the class's nk keys; ``first`` (nk,) holds each key's first slot, the
    cell whose geometry its tables are built from, and ``batches`` the
    pairs of ``_batches`` by which the kernels read them at both point
    sets (see :meth:`point_set`).  ``positions`` (nc, ne) locate the
    cells' loops in the mesh's CSR arrays (see ``Mesh.shape_classes``).
    Per cell, along the first axis: ``edges``, ``nbr`` (the neighbour
    across each local edge, -1 on the boundary), ``plus`` (is the cell the
    edge's plus cell) and outward ``normals``;
    quadrature ``points`` (nc, q, 2) and ``weights`` (nc, q), views of rows
    ``start`` to ``stop`` of the flat ``cell_points`` and ``cell_weights``.
    Their half-edge points, (nc, ne, edge_q), are rows ``edge_start`` on
    of the flat ``edge_*`` arrays (see the module docstring).
    Per key: the data rule ``local_rule`` (points about the centroid (nk,
    q, 2) and weights (nk, q); see the module docstring for its fan) until
    :meth:`place` writes it out, the diameter
    ``scale``, the lower-triangular ``transform`` (nk, dim, dim), the
    inverse of the monomial Gram Cholesky factor, which maps the scaled
    monomials of degree ``j`` to the orthonormal basis, from the Gram
    matrix on the centroid fan; its values ``phi`` (nk, dim, q) at the data
    rule's points; the volume moments ``vx``/``vy`` (nk, dim, dim_k) of
    (d_i phi_a, phi_b), ``transform @ D_i @ L[..., :dim_k] / h`` with L the
    Gram Cholesky factor and D_i the monomials' derivative matrix (see the
    module docstring); ``condition``, the largest (max L_ii / min
    L_ii)^2, a lower bound of the Gram matrices' condition numbers; the
    basis at the half-edge points ``edge_phi`` (nk, dim, ne edge_q); and
    per local edge the moments ``own_m`` and ``nbr_m`` (nk, ne, dim,
    dim_k), <phi_a, psi_b> against the cell's and the neighbour's degree-k
    basis psi (zero on the boundary).
    """

    def __init__(self, disc, edge_count, cells, positions, key, nbr, plus):
        mesh, k = disc.mesh, disc.k
        self.ne = edge_count
        self.cells, self.key, self.nbr, self.plus = cells, key, nbr, plus
        self.j = target_degree(edge_count, k)
        self.dim = dim_poly(self.j)
        self.edges = mesh.cell_edge_ids[positions]
        self.normals = (np.where(plus, -1.0, 1.0)[..., None]
                        * mesh.edge_normals[self.edges])
        self.first = np.flatnonzero(np.diff(key, prepend=-1))
        self.batches = _batches(key)
        rep = cells[self.first]
        centroid = mesh.cells.centroid[rep]
        self.scale = mesh.cells.diameter[rep]
        loops = (mesh.vertices[mesh.cell_vertex_ids[positions[self.first]]]
                 - centroid[:, None])
        exactness = 2 * self.j + disc.cell_exactness_bump
        offsets, weights = fan_quadrature(loops, np.zeros_like(centroid),
                                          exactness)
        raw = monomial_tables(offsets / self.scale[:, None, None], self.j)
        gram = (raw * weights[:, None, :]) @ raw.transpose(0, 2, 1)
        gram = 0.5 * (gram + gram.transpose(0, 2, 1))
        chol = _cholesky(gram, rep, self.j)
        diag = chol.diagonal(axis1=1, axis2=2)
        self.condition = float(((diag.max(1) / diag.min(1)) ** 2).max())
        self.transform = np.tril(np.linalg.inv(chol))
        # the data rule: n-2 triangles instead of n where every loop is
        # strictly convex; the tables above stay on the centroid fan
        if self.ne >= 4 and strictly_convex(loops).all():
            offsets, weights = vertex_fan_quadrature(loops, exactness)
            raw = monomial_tables(offsets / self.scale[:, None, None], self.j)
        self.local_rule = offsets, weights
        self.q = weights.shape[1]
        self.phi = self.transform @ raw
        # the volume moments from the factor (see the module docstring)
        lk = chol[..., :disc.dim_k] / self.scale[:, None, None]
        self.vx, self.vy = (
            self.transform @ (derivative_matrix(self.j, d) @ lk)
            for d in (0, 1))

    def place(self, start, centroid, points, weights):
        """Write each cell's rule, its ``centroid`` (n_cells, 2) plus its
        key's points, into
        rows ``start`` on of the flat ``points`` and ``weights``, and keep
        views (nc, q, ...) of them."""
        self.start, self.stop = start, start + len(self.cells) * self.q
        self.points = points[start:self.stop].reshape(-1, self.q, 2)
        self.weights = weights[start:self.stop].reshape(-1, self.q)
        offsets, rule = self.local_rule
        del self.local_rule  # a copy per cell once no two cells share a key
        # mode "clip" writes straight into out ("raise" buffers it)
        np.take(offsets, self.key, axis=0, out=self.points, mode="clip")
        self.points += centroid[self.cells, None]
        np.take(rule, self.key, axis=0, out=self.weights, mode="clip")

    def point_set(self, edges):
        """(per-key tables, first flat row, points per cell) of the cell or,
        with ``edges``, the half-edge points."""
        if edges:
            return self.edge_phi, self.edge_start, self.ne * self.edge_q
        return self.phi, self.start, self.q


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
    :meth:`_weak_gradient`) of the velocity (field k, target j, zero
    boundary average) and pressure (field k-1, target k, own boundary
    trace) weak gradients, and ``velocity_dofs`` (n_cells, 2, dim_k) /
    ``pressure_dofs`` (n_cells, dim_p) each cell's DOF indices; its basis
    monomials are centered at its centroid (see the module docstring).
    Flat arrays over all cell quadrature points: ``cell_points``,
    ``cell_weights``, ``cell_owner``; over all half-edge points:
    ``edge_points``, ``edge_weights``, ``edge_owner``, ``edge_normal`` (out
    of the owner), ``edge_index`` and ``edge_twin``, by class, cell, local
    edge and point (see ShapeClass); a half-edge's padding points copy its
    last point and that point's twin, at weight 0.  ``gram_condition``
    maps each target degree to the worst lower bound of its monomial Gram
    matrices' condition numbers (see ShapeClass ``condition``).

    Assembly and analysis read the classes through the kernels
    :meth:`cell_moments`, :meth:`cell_values`, :meth:`cell_mass`,
    :meth:`edge_moments`, :meth:`edge_values`, :meth:`apply` and
    :meth:`apply_transpose`.
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
        self.classes = [ShapeClass(self, *cls) for cls in _keyed_classes(mesh)]
        total = sum(len(c.cells) * c.q for c in self.classes)
        self.cell_points = np.empty((total, 2))
        self.cell_weights = np.empty(total)
        start = 0
        for cls in self.classes:
            cls.place(start, mesh.cells.centroid, self.cell_points,
                      self.cell_weights)
            start = cls.stop
        self.cell_owner = np.concatenate(
            [np.repeat(c.cells, c.q) for c in self.classes])
        self.gram_condition = {}
        for cls in self.classes:
            self.gram_condition[cls.j] = max(
                cls.condition, self.gram_condition.get(cls.j, 1.0))
        # each cell's key among all classes' keys, for point evaluation
        self._key_of = np.empty(n, dtype=np.int64)
        base = 0
        for cls in self.classes:
            self._key_of[cls.cells] = base + cls.key
            base += len(cls.first)
        self._tk = np.concatenate(
            [c.transform[:, :self.dim_k, :self.dim_k] for c in self.classes])
        self._scale = np.concatenate([c.scale for c in self.classes])
        # shared edge rules: exactness covers both incident target degrees
        jmax = np.zeros(mesh.n_edges, dtype=np.int64)
        for cls in self.classes:
            jmax[cls.edges] = np.maximum(jmax[cls.edges], cls.j)
        self._build_half_edges(
            edge_point_count(jmax + k + edge_exactness_bump))
        self.vel = self._weak_gradient(self.dim_k, None, "zero")
        self.pre = self._weak_gradient(self.dim_p, self.dim_k, "natural")

    def _build_half_edges(self, edge_npts):
        mesh, dk = self.mesh, self.dim_k
        # each edge's rule once, (n_edges, most points), which both its
        # half-edges read; an edge of fewer points repeats its last at
        # weight 0
        rule_points = np.empty((mesh.n_edges, int(edge_npts.max()), 2))
        rule_weights = np.zeros(rule_points.shape[:2])
        ends = mesh.vertices[mesh.edge_vertices]
        for q in np.flatnonzero(np.bincount(edge_npts)).tolist():
            at = np.flatnonzero(edge_npts == q)
            rule_points[at, :q], rule_weights[at, :q] = gauss_segments(
                ends[at, 0], ends[at, 1], q)
            rule_points[at, q:] = rule_points[at, q - 1:q]
        npts = [edge_npts[c.edges] for c in self.classes]
        total = 0
        for cls, n in zip(self.classes, npts):
            cls.edge_q, cls.edge_start = int(n.max()), total
            total += n.size * cls.edge_q
        self.edge_points = np.empty((total, 2))
        self.edge_weights = np.empty(total)
        self.edge_owner = np.empty(total, dtype=np.int64)
        self.edge_normal = np.empty((total, 2))
        self.edge_index = np.empty(total, dtype=np.int64)
        self.edge_twin = np.empty(total, dtype=np.int64)
        start_of = np.full((mesh.n_edges, 2), -1)

        def view(flat, cls, *shape):
            """A class's rows of a flat array, (nc, ne, edge_q, *shape)."""
            rows = slice(cls.edge_start, cls.edge_start + cls.edges.size
                         * cls.edge_q)
            return flat[rows].reshape(cls.edges.shape + (cls.edge_q,) + shape)

        for cls, n in zip(self.classes, npts):
            qe = cls.edge_q
            view(self.edge_points, cls, 2)[...] = rule_points[cls.edges, :qe]
            view(self.edge_weights, cls)[...] = rule_weights[cls.edges, :qe]
            view(self.edge_owner, cls)[...] = cls.cells[:, None, None]
            view(self.edge_index, cls)[...] = cls.edges[..., None]
            view(self.edge_normal, cls, 2)[...] = cls.normals[..., None, :]
            start_of[cls.edges, cls.plus * 1] = (
                cls.edge_start + qe * np.arange(n.size).reshape(n.shape))
            at = (view(self.edge_points, cls, 2)[cls.first]
                  - mesh.cells.centroid[cls.cells[cls.first], None, None])
            # one product per local edge: a half-edge's table rounds the
            # same whatever the class's other edges are
            phi = cls.transform[:, None] @ monomial_tables(
                at / cls.scale[:, None, None, None], cls.j)
            cls.edge_phi = phi.transpose(0, 2, 1, 3).reshape(
                len(cls.first), cls.dim, -1)
        # the owners' degree-k basis at every half-edge point, and zero
        # where a boundary point's twin, -1, reads
        basis = np.concatenate([self.edge_values(np.broadcast_to(
            np.eye(dk), (mesh.n_cells, dk, dk))), np.zeros((1, dk))])
        for cls, n in zip(self.classes, npts):
            # a padding point's twin is its half-edge's last point's twin
            other = start_of[cls.edges, 1 - cls.plus][..., None]
            twin = view(self.edge_twin, cls)
            twin[...] = np.where(other >= 0, other + np.minimum(
                np.arange(cls.edge_q), n[..., None] - 1), -1)
            twin = twin[cls.first]
            phi = cls.edge_phi.reshape(
                len(cls.first), cls.dim, cls.ne, -1).transpose(0, 2, 1, 3)
            wphi = phi * view(self.edge_weights, cls)[cls.first, :, None]
            cls.own_m = wphi @ phi[:, :, :dk].transpose(0, 1, 3, 2)
            cls.nbr_m = wphi @ basis[twin]

    # -- weak-gradient and jump maps ------------------------------------------

    def _weak_gradient(self, field, target, boundary):
        """Per-class maps of one scalar weak-gradient operator.

        ``field`` is the number of leading basis functions of the field
        (at most dim_k), ``target`` that of the target space, None for the
        class's full degree-j basis; ``boundary`` is "zero" or "natural".
        Each map has shape (nk, 2, dt, (1 + ne) df), one per key: it takes a
        cell's field coefficients followed by its neighbours' (see
        :meth:`columns`) to the coefficients of the two gradient components
        in the orthonormal target basis, which are also their moments
        against that basis.
        """
        return [self._class_maps(cls, field, target, boundary)
                for cls in self.classes]

    def _edge_blocks(self, cls, df, dt, inner, boundary, across):
        """Per key and local edge (nk, ne, dt, df): ``own_m`` times
        ``inner`` on interior and ``boundary`` on boundary edges, ``nbr_m``
        times ``across``."""
        on = (cls.nbr[cls.first] >= 0)[..., None, None]
        return (np.where(on, inner, boundary) * cls.own_m[..., :dt, :df],
                across * cls.nbr_m[..., :dt, :df])

    def _class_maps(self, cls, df, dt, boundary):
        nk, ne = len(cls.first), cls.ne
        dt = cls.dim if dt is None else dt
        own, nbr = self._edge_blocks(
            cls, df, dt, 0.5, 1.0 if boundary == "natural" else 0.0, 0.5)
        normals = cls.normals[cls.first]
        B = np.zeros((nk, 2, dt, ne + 1, df))
        for d, vol in enumerate((cls.vx, cls.vy)):
            B[:, d, :, 0] = -vol[:, :dt, :df]
            for i in range(ne):
                n = normals[:, i, d, None, None]
                B[:, d, :, 0] += n * own[:, i]
                B[:, d, :, i + 1] = n * nbr[:, i]
        return B.reshape(nk, 2, dt, -1)

    def jump_maps(self):
        """Per-class maps (nk, 1, dp, (1 + ne) dp), laid out as
        :meth:`_weak_gradient`'s: each cell's rows of the stabilizer S.

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
                len(cls.first), 1, dp, -1))
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
        """Products of per-class maps (nk, r, dt, (1 + ne) df), such as
        ``vel``, ``pre`` or :meth:`jump_maps`, with coefficients (n_cells,
        ..., df) in DOF layout, e.g. ``u[velocity_dofs]``, boundary slots
        reading zero: per class (nc, ..., r, dt)."""
        coef = np.asarray(coef, dtype=float)
        padded = np.concatenate([coef, np.zeros((1,) + coef.shape[1:])])
        out = []
        for cls, mp in zip(self.classes, maps):
            loc = np.moveaxis(padded[self._slots(cls)], 1, -2)
            shape = loc.shape[:-2] + mp.shape[1:3]
            loc = loc.reshape(len(loc), -1, 1, mp.shape[-1], 1)
            prod = np.empty(loc.shape[:2] + mp.shape[1:3] + (1,))
            for keys, rows in cls.batches:
                np.matmul(mp[keys, None], loc[rows], out=prod[rows])
            out.append(prod.reshape(shape))
        return out

    def apply_transpose(self, maps, coef):
        """The transpose of :meth:`apply`: per-class (nc, ..., r, dt) to
        (n_cells, ..., df), summed over the maps that read each cell."""
        owners, blocks = [], []
        for cls, mp, c in zip(self.classes, maps, coef):
            _, r, dt, width = mp.shape
            nc = len(cls.cells)
            ct = c.reshape(nc, -1, r, dt).transpose(0, 2, 1, 3)
            prod = np.empty((nc, ct.shape[2], width))
            for keys, rows in cls.batches:
                prod[rows] = (ct[rows] @ mp[keys]).sum(1)
            m, slots = prod.shape[1], self._slots(cls)
            blocks.append(prod.reshape(nc, m, cls.ne + 1, -1)
                        .transpose(0, 2, 1, 3).reshape(slots.size, m, -1))
            owners.append(slots.ravel())
        out = _sum_rows(np.concatenate(owners), np.concatenate(blocks),
                        self.mesh.n_cells)
        return out.reshape(out.shape[:1] + c.shape[1:-2] + out.shape[-1:])

    # -- cell and edge kernels ------------------------------------------------

    def _values(self, coef, edges):
        """Values at the cell or, with ``edges``, the half-edge points (see
        :meth:`cell_values`)."""
        if not isinstance(coef, list):  # DOF layout
            coef = [coef[cls.cells] for cls in self.classes]
        n = len(self.edge_points if edges else self.cell_points)
        out = np.empty((n,) + coef[0].shape[1:-1])
        flat = out.reshape(n, -1)
        for cls, c in zip(self.classes, coef):
            phi, start, q = cls.point_set(edges)
            d = c.shape[-1]
            c = c.reshape(len(c), -1, d)
            o = flat[start:start + len(c) * q].reshape(-1, q, flat.shape[1])
            for keys, rows in cls.batches:
                np.matmul(phi[keys, :d].transpose(0, 2, 1),
                          c[rows].transpose(0, 2, 1), out=o[rows])
        return out

    def _moments(self, values, d, edges):
        """Moments of values at the cell or, with ``edges``, the half-edge
        points, summed per cell (see :meth:`cell_moments`)."""
        values = np.asarray(values, dtype=float)
        weights = self.edge_weights if edges else self.cell_weights
        wv = (weights.reshape((-1,) + (1,) * (values.ndim - 1))
              * values).reshape(len(values), -1)
        moments = []
        for cls in self.classes:
            phi, start, q = cls.point_set(edges)
            nc = len(cls.cells)
            v = wv[start:start + nc * q].reshape(nc, q, -1)
            m = np.empty((nc, cls.dim if d is None else d, v.shape[2]))
            for keys, rows in cls.batches:
                np.matmul(phi[keys, :d], v[rows], out=m[rows])
            moments.append(m.transpose(0, 2, 1).reshape(
                m.shape[:1] + values.shape[1:] + (-1,)))
        if d is None:
            return moments
        out = np.empty((self.mesh.n_cells,) + values.shape[1:] + (d,))
        for cls, m in zip(self.classes, moments):
            out[cls.cells] = m
        return out

    def cell_moments(self, values, d=None):
        """Moments of values (n_points, ...) at ``cell_points`` against each
        cell's leading d <= dim_k basis functions, (n_cells, ..., d) in DOF
        layout: the coefficients of the L2 projection.  With d None, per
        class (nc, ..., dim_j) against the degree-j target basis of ``vel``.
        """
        return self._moments(values, d, edges=False)

    def cell_values(self, coef):
        """Values (n_points, ...) at ``cell_points`` of the coefficients of
        each cell's leading d basis functions: (n_cells, ..., d) in DOF
        layout, or a per-class list of (nc, ..., d) as :meth:`apply` and
        :meth:`cell_moments` return."""
        return self._values(coef, edges=False)

    def cell_mass(self, values, d):
        """Per class (nc, d, d): each cell's sum over its points of weight
        times value (``values`` (n_points,) at ``cell_points``) times
        phi_a phi_b, for its leading d <= dim_k basis functions."""
        wv = self.cell_weights * np.asarray(values, dtype=float)
        out = []
        for cls in self.classes:
            v = wv[cls.start:cls.stop].reshape(-1, 1, cls.q)
            mass = np.empty((len(v), d, d))
            for keys, rows in cls.batches:
                phi = cls.phi[keys, :d]
                mass[rows] = (phi * v[rows]) @ phi.transpose(0, 2, 1)
            out.append(mass)
        return out

    def edge_values(self, coef):
        """Owner-side values (n_points, ...) at every half-edge point of
        coefficients as for :meth:`cell_values`."""
        return self._values(coef, edges=True)

    def edge_moments(self, values, d=None):
        """Moments of values (n_points, ...) at the half-edge points against
        the owners' basis, summed over each cell's boundary; laid out as
        :meth:`cell_moments` returns them for the same d."""
        return self._moments(values, d, edges=True)

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
        key = self._key_of[cells]
        local = ((points - self.mesh.cells.centroid[cells])
                 / self._scale[key][:, None])
        t = monomial_tables(local[:, None, :], self.k)
        return (self._tk[key] @ t)[..., 0]

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
