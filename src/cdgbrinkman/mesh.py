"""2D polytopal meshes of rectangular domains: topology, generators, file I/O.

A mesh partitions a planar domain into simple CCW polygons and is held as
index and geometry arrays that every layer reads directly: ``vertices``;
the cell loops in CSR form (cell c's vertex ids are
``cell_vertex_ids[cell_offsets[c]:cell_offsets[c + 1]]``, and the same
slice of ``cell_edge_ids`` holds its edges, edge i joining vertex i to
vertex i + 1); per edge ``edge_vertices``, ``edge_cells`` (-1 for the
missing cell of a boundary edge), unit ``edge_normals`` and
``edge_lengths``; per cell the record array ``cells`` (``edge_count``,
``area``, ``centroid``, ``diameter``).

Edges are numbered by first occurrence along the cell loops in cell order.
``edge_vertices[e]`` is (min, max) of its vertex ids, the order in which
both cells parametrize its quadrature.  ``edge_cells[e, 0]`` is the first
cell to traverse e (the minus side) and ``edge_normals[e]`` points out of
it, so jump signs are deterministic.
"""

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "MeshValidationError",
    "generate_uniform_triangular",
    "generate_uniform_rectangular",
    "generate_polygonal",
    "load_mesh",
    "save_mesh",
]


class MeshValidationError(Exception):
    """A mesh violates a topological or geometric invariant."""


class MeshFormatError(Exception):
    """A mesh file could not be parsed."""


_CELL_FIELDS = np.dtype([("edge_count", np.int64), ("area", float),
                         ("centroid", float, (2,)), ("diameter", float)])


class Mesh:
    """Immutable polygonal partition in the array layout described above.

    Parameters
    ----------
    vertices : (n, 2) array
    cell_vertex_ids : sequence of index sequences, or an (n_cells, m) array
        CCW vertex loops, one per cell.
    labeled_h : float, optional
        Nominal mesh size 1/n_div used to label refinement levels; the
        geometric ``h`` (max cell diameter) is always computed.
    """

    def __init__(self, vertices, cell_vertex_ids, labeled_h=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertices must be an (n, 2) array")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshValidationError(
                f"vertex {bad[0]} has non-finite coordinates "
                f"{tuple(self.vertices[bad[0]].tolist())}")
        self.cell_offsets, self.cell_vertex_ids = _csr(cell_vertex_ids)
        if len(self.cell_offsets) < 2:
            raise MeshValidationError("mesh has no cells")
        ids = self.cell_vertex_ids
        bad = np.flatnonzero((ids < 0) | (ids >= len(self.vertices)))
        if len(bad):
            raise MeshValidationError(
                f"cell {_cell_of(self.cell_offsets, bad[0])} has vertex id "
                f"{ids[bad[0]]} outside [0, {len(self.vertices)})")
        self.cells = np.zeros(len(self.cell_offsets) - 1,
                              _CELL_FIELDS).view(np.recarray)
        self.cells.edge_count = np.diff(self.cell_offsets)
        # degenerate cells divide by zero here and are rejected below
        with np.errstate(divide="ignore", invalid="ignore"):
            for _, cells, pos in self.shape_classes():
                self._cell_geometry(cells,
                                    self.vertices[self.cell_vertex_ids[pos]])
        bad = np.flatnonzero(self.cells.area <= 0.0)
        if len(bad):
            raise MeshValidationError(
                f"cell {bad[0]} is not counter-clockwise "
                f"(signed area {self.cells.area[bad[0]]:g})")
        flip = self._build_incidence()
        ends = self.vertices[self.edge_vertices]
        t = ends[:, 1] - ends[:, 0]
        self.edge_lengths = np.hypot(t[:, 0], t[:, 1])
        bad = np.flatnonzero(self.edge_lengths <= 0.0)
        if len(bad):
            raise MeshValidationError(f"edge {bad[0]} has zero length")
        t /= self.edge_lengths[:, None]
        # right-hand normal of v0 -> v1, outward iff the minus cell
        # traverses the edge in that direction
        n = np.column_stack([t[:, 1], -t[:, 0]])
        self.edge_normals = np.where(flip[:, None], -n, n)
        self.h = float(self.cells.diameter.max())
        self.labeled_h = self.h if labeled_h is None else float(labeled_h)
        self.bbox = (self.vertices.min(axis=0), self.vertices.max(axis=0))
        self.boundary_edge_ids = np.flatnonzero(self.edge_cells[:, 1] < 0)
        self.interior_edge_ids = np.flatnonzero(self.edge_cells[:, 1] >= 0)
        self.validate()

    # -- construction -----------------------------------------------------

    def _cell_geometry(self, cells, pts):
        """Area, centroid and diameter of the loops ``pts`` (nc, ne, 2).

        The shoelace sums run relative to each loop's first vertex, so they
        do not cancel, and congruent cells get the same centroid offset
        from that vertex to roundoff of their size."""
        rel = pts - pts[:, :1]
        x, y = rel[..., 0], rel[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * yn - xn * y
        area2 = cross.sum(axis=1)
        self.cells.area[cells] = 0.5 * area2
        self.cells.centroid[cells] = pts[:, 0] + np.column_stack(
            [((x + xn) * cross).sum(axis=1) / (3.0 * area2),
             ((y + yn) * cross).sum(axis=1) / (3.0 * area2)])
        d = pts[:, :, None, :] - pts[:, None, :, :]
        self.cells.diameter[cells] = np.sqrt((d ** 2).sum(-1)).max(
            axis=(1, 2), initial=0.0)

    def _build_incidence(self):
        """Fill ``cell_edge_ids``, ``edge_vertices`` and ``edge_cells``.

        Returns per edge whether its minus cell traverses it from the
        larger vertex id to the smaller.  An edge of three or more cells
        keeps one of the later ones as plus cell; :meth:`validate` rejects
        it.
        """
        a = self.cell_vertex_ids
        nxt = np.arange(1, len(a) + 1)
        nxt[self.cell_offsets[1:] - 1] = self.cell_offsets[:-1]
        b = a[nxt]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        self.cell_edge_ids, head = _first_occurrence(lo * self.n_vertices + hi)
        self.edge_vertices = np.column_stack([lo[head], hi[head]])
        owner = np.repeat(np.arange(self.n_cells), self.cells.edge_count)
        later = np.ones(len(a), dtype=bool)
        later[head] = False
        self.edge_cells = np.full((len(head), 2), -1)
        self.edge_cells[:, 0] = owner[head]
        self.edge_cells[self.cell_edge_ids[later], 1] = owner[later]
        return a[head] > b[head]

    # -- queries -----------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edge_vertices)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def shape_classes(self):
        """Yield (edge count ne, cells, positions) per edge-count class.

        ``cells`` ascend; ``positions`` (nc, ne) index the flat CSR arrays,
        so ``cell_vertex_ids[positions]`` are the class's vertex loops and
        ``cell_edge_ids[positions]`` its edges.
        """
        counts = np.diff(self.cell_offsets)
        # not np.unique, which would import numpy.ma (np.ma.is_masked)
        for ne in np.flatnonzero(np.bincount(counts)).tolist():
            cells = np.flatnonzero(counts == ne)
            yield ne, cells, self.cell_offsets[cells, None] + np.arange(ne)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check the structural invariants; raise MeshValidationError.

        Besides simple cells, star-shaped about their centroids, and unit
        normals, the mesh must be conforming: every boundary edge lies on
        the bounding box and V - E + F = 1.
        Each message names the lowest-index offending cell or edge.
        """
        count = np.bincount(self.cell_edge_ids)
        bad = np.flatnonzero(count > 2)
        if len(bad):
            owner = np.repeat(np.arange(self.n_cells), self.cells.edge_count)
            cells = owner[self.cell_edge_ids == bad[0]][:3]
            v0, v1 = self.edge_vertices[bad[0]]
            raise MeshValidationError(
                f"edge ({v0}, {v1}) is shared by more than two cells "
                f"({cells[0]}, {cells[1]}, {cells[2]})")
        star = "is not star-shaped about its centroid"
        faults = {"repeats a vertex": [], "has <3 edges": [],
                  "self-intersects": [], star: []}
        for ne, cells, pos in self.shape_classes():
            loops = self.cell_vertex_ids[pos]
            pts, geo = self.vertices[loops], self.cells[cells]
            repeats = (np.diff(np.sort(loops, axis=1), axis=1) == 0).any(axis=1)
            faults["repeats a vertex"].append(cells[repeats])
            faults["has <3 edges"].append(cells if ne < 3 else cells[:0])
            faults["self-intersects"].append(cells[_sides_cross(pts)])
            # the Gram matrices' rule fans the cell from its centroid; a fan
            # triangle of no or negative area would cover the wrong region
            e, b = np.roll(pts, -1, axis=1) - pts, geo.centroid[:, None] - pts
            fan = 0.5 * (e[..., 0] * b[..., 1] - e[..., 1] * b[..., 0])
            faults[star].append(cells[(
                fan < 1e-14 * geo.diameter[:, None] ** 2).any(axis=1)])
        for fault, cells in faults.items():
            cells = np.concatenate(cells)
            if len(cells):
                raise MeshValidationError(f"cell {cells.min()} {fault}")
        n = self.edge_normals
        t = np.diff(self.vertices[self.edge_vertices], axis=1)[:, 0]
        for fault, bad in (
                ("normal not unit", np.abs(np.hypot(*n.T) - 1.0) > 1e-14),
                ("normal not perpendicular", np.abs((t * n).sum(axis=1))
                 > 1e-14 * self.edge_lengths)):
            if bad.any():
                raise MeshValidationError(f"edge {bad.argmax()} {fault}")
        # a boundary edge inside the domain is one side of a hanging node
        lo, hi = self.bbox
        tol = 1e-10 * float((hi - lo).max())
        ends = self.edge_vertices[self.boundary_edge_ids]
        pts = self.vertices[ends]
        on_side = ((np.abs(pts - lo) <= tol).all(axis=1)
                   | (np.abs(pts - hi) <= tol).all(axis=1)).any(axis=1)
        if not on_side.all():
            i = np.flatnonzero(~on_side)[0]
            (v0, v1), (p0, p1) = ends[i], pts[i].tolist()
            raise MeshValidationError(
                f"boundary edge {self.boundary_edge_ids[i]} (vertices {v0} "
                f"{tuple(p0)} and {v1} {tuple(p1)}) lies inside the domain: "
                "hanging node or non-conforming interface")
        chi = self.euler_characteristic()
        if chi != 1:
            raise MeshValidationError(
                f"V - E + F = {chi}, expected 1 for a conforming partition "
                "of a rectangle (hole, hanging node or unused vertex?)")

    def euler_characteristic(self):
        """V - E + F for the cell complex (1 for a partition of a disk)."""
        return self.n_vertices - self.n_edges + self.n_cells


def _cell_of(offsets, position):
    """Cell whose loop holds flat position ``position``."""
    return np.searchsorted(offsets, position, side="right") - 1


class _Loops(NamedTuple):
    """Cell loops already in CSR form: int64 ``offsets`` and ``ids``."""
    offsets: np.ndarray
    ids: np.ndarray


def _csr(loops):
    """(offsets, flat ids) of a sequence of loops, an (n, m) index array or
    :class:`_Loops`.

    Raises MeshValidationError for an id that is not an integer; an
    integral float such as 3.0 is accepted.
    """
    if isinstance(loops, _Loops):
        return loops
    if isinstance(loops, np.ndarray) and loops.ndim == 2:
        n, m = loops.shape
        offsets, raw = m * np.arange(n + 1), loops.ravel()
    else:
        counts = np.fromiter(map(len, loops), dtype=np.int64,
                             count=len(loops))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        raw = np.fromiter(itertools.chain.from_iterable(loops), dtype=float,
                          count=int(counts.sum()))
    with np.errstate(invalid="ignore"):  # NaN and inf are caught below
        flat = raw.astype(np.int64)
    bad = np.flatnonzero(flat != raw)
    if len(bad):
        raise MeshValidationError(
            f"cell {_cell_of(offsets, bad[0])} has non-integer vertex id "
            f"{raw[bad[0]].item()}")
    return offsets, flat


def _first_occurrence(keys):
    """Number equal keys (entries of 1-D ``keys``, rows of 2-D integer
    ``keys``) by first occurrence.

    Returns each key's number and, per number, its first position.  A row
    is compared as one run of bytes, which sorts several times faster than
    ``np.unique(axis=0)``.
    """
    if keys.ndim == 2:
        keys = np.ascontiguousarray(keys)
        keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


def _sides_cross(pts):
    """Per loop of ``pts`` (nc, ne, 2): do two non-adjacent sides cross
    strictly (at a point interior to both)?"""
    ne = pts.shape[1]
    i, j = np.triu_indices(ne, 2)
    keep = (i > 0) | (j < ne - 1)
    i, j = i[keep], j[keep]
    p, q = pts[:, i], pts[:, (i + 1) % ne]
    r, s = pts[:, j], pts[:, (j + 1) % ne]

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    d1, d2 = cross(q - p, r - p), cross(q - p, s - p)
    d3, d4 = cross(s - r, p - r), cross(s - r, q - r)
    return ((d1 * d2 < 0) & (d3 * d4 < 0)).any(axis=1)


# ---------------------------------------------------------------------------
# generators (unit square)
# ---------------------------------------------------------------------------

def _unit_square_grid(n_div):
    """Vertices of the (n+1)^2 lattice, vertex j (n+1) + i at (x_i, y_j),
    and each square's lower-left vertex, squares ordered row by row."""
    if n_div < 1:
        raise ValueError("n_div must be >= 1")
    n = int(n_div)
    xs = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs)
    corner = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return n, np.column_stack([x.ravel(), y.ravel()]), corner


def generate_uniform_triangular(n_div):
    """Uniform triangulation of the unit square: n x n squares, each split
    along the same diagonal into two triangles (2 n^2 cells)."""
    n, verts, a = _unit_square_grid(n_div)
    b, c, d = a + 1, a + n + 2, a + n + 1
    # split along the b-d diagonal, both triangles CCW
    cells = np.stack([np.column_stack([a, b, d]),
                      np.column_stack([b, c, d])], axis=1).reshape(-1, 3)
    return Mesh(verts, cells, labeled_h=1.0 / n)


def generate_uniform_rectangular(n_div):
    """Uniform n x n partition of the unit square into axis-aligned squares."""
    n, verts, a = _unit_square_grid(n_div)
    cells = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    return Mesh(verts, cells, labeled_h=1.0 / n)


def generate_polygonal(n_div):
    """Hexagon-dominant polygonal partition of the unit square.

    Cells are the Voronoi (Wigner-Seitz) hexagons of an offset-row point
    lattice, clipped to the square.  The lattice is aligned so the square's
    corners are generators, which caps the per-cell edge count at 6 (quarter
    and half hexagons appear along the boundary).  Labeled mesh size is
    1/n_div; the hexagon width is exactly 1/n_div.  All hexagons are
    clipped together, one array pass per side of the square.
    """
    if n_div < 2:
        raise ValueError("n_div must be >= 2")
    nx = int(n_div)
    ny = 2 * max(1, round(nx / math.sqrt(3.0)))
    a = 1.0 / nx          # horizontal generator spacing
    b = 1.0 / ny          # row spacing; b/a in (1/2, 1] keeps cells hexagonal
    y_side = (b * b - 0.25 * a * a) / (2.0 * b)
    y_top = (b * b + 0.25 * a * a) / (2.0 * b)
    if y_side <= 0.0:
        raise MeshValidationError("degenerate lattice aspect ratio")
    hexagon = np.array([
        (0.5 * a, -y_side), (0.5 * a, y_side), (0.0, y_top),
        (-0.5 * a, y_side), (-0.5 * a, -y_side), (0.0, -y_top),
    ])
    rows = np.arange(ny + 1)
    cx = np.arange(-1, nx + 2) * a + np.where(rows % 2, 0.5 * a, 0.0)[:, None]
    cy = np.broadcast_to((rows * b)[:, None], cx.shape)
    pts = (hexagon + np.stack([cx, cy], axis=-1)[..., None, :]).reshape(-1, 2)
    owner = np.repeat(np.arange(cx.size), len(hexagon))
    pts, count = _clip_to_unit_square(pts, owner, 1e-12 * a * b)
    # points whose coordinates fall in the same 1e-12 clusters are one
    # vertex, numbered by first occurrence
    ids, first = _first_occurrence(np.column_stack(
        [_clusters(x, 1e-12) for x in pts.T]))
    return Mesh(pts[first], _Loops(np.r_[0, np.cumsum(count)], ids),
                labeled_h=1.0 / nx)


def _clusters(x, gap):
    """Number each value of ``x`` by its cluster, values sorted: a step of
    more than ``gap`` starts a new cluster.  Unlike rounding to multiples
    of ``gap``, this never splits two values closer than ``gap``."""
    order = np.argsort(x, kind="stable")
    out = np.empty(len(x), np.int64)
    out[order] = np.cumsum(np.diff(x[order], prepend=x[order[0]]) > gap)
    return out


def _prev_in_loop(owner):
    """Flat position of each point's predecessor along its loop; ``owner``
    numbers the loop of each point, equal within a loop's run."""
    first = np.r_[True, owner[1:] != owner[:-1]]
    prev = np.arange(-1, len(owner) - 1)
    prev[first] = np.flatnonzero(np.r_[first[1:], True])
    return prev


def _loop_areas(pts, owner):
    """Signed shoelace area of each loop number up to ``owner.max()``."""
    x, y = pts.T
    xp, yp = pts[_prev_in_loop(owner)].T
    return 0.5 * np.bincount(owner, xp * y - x * yp)


def _clip_to_unit_square(pts, owner, min_area):
    """Sutherland-Hodgman clip of convex CCW loops to [0,1]^2.

    The loops are flat runs of ``pts``, numbered by ``owner``; all are
    clipped at once, one half-plane after another.  Near-duplicate points
    are then dropped (:func:`_dedupe_loops`), and so is a loop left with
    fewer than 3 points or an area of at most ``min_area``.  Returns the
    kept loops' points and point counts.
    """
    for axis, sign, c in ((0, 1.0, 0.0), (0, -1.0, -1.0),
                          (1, 1.0, 0.0), (1, -1.0, -1.0)):
        prev = _prev_in_loop(owner)
        d = sign * pts[:, axis] - c
        inside = d >= -1e-15
        cross = inside != inside[prev]
        # each point emits the crossing into it, then itself if inside
        out = np.empty((len(pts), 2, 2))
        out[:, 1] = pts
        p, dp, q, dq = pts[prev[cross]], d[prev[cross]], pts[cross], d[cross]
        t = dp / (dp - dq)
        out[cross, 0] = p + t[:, None] * (q - p)
        emit = np.column_stack([cross, inside])
        pts, owner = out[emit], np.repeat(owner, emit.sum(axis=1))
    pts, owner = _dedupe_loops(pts, owner)
    loops, count = np.unique(owner, return_counts=True)
    keep = (count >= 3) & (_loop_areas(pts, owner)[loops] > min_area)
    return pts[np.repeat(keep, count)], count[keep]


def _dedupe_loops(pts, owner, tol=1e-12):
    """Drop each point within ``tol`` of the last point kept before it in
    its loop, then a last point within ``tol`` of its loop's first."""
    first = np.r_[True, owner[1:] != owner[:-1]]
    at = np.arange(len(pts))
    keep = np.ones(len(pts), dtype=bool)
    # a point's fate depends only on the points before it, so each sweep
    # settles at least one more point of every loop
    while True:
        # the last kept point before each point (its loop's first is kept)
        last = np.r_[0, np.maximum.accumulate(np.where(keep, at, 0))[:-1]]
        gap = pts - pts[last]
        new = first | (np.hypot(gap[:, 0], gap[:, 1]) > tol)
        if (new == keep).all():
            break
        keep = new
    pts, owner, first = pts[keep], owner[keep], first[keep]
    tail = np.r_[first[1:], True] & ~first
    head = np.maximum.accumulate(np.where(first, at[:len(pts)], 0))
    gap = pts - pts[head]
    keep = ~(tail & (np.hypot(gap[:, 0], gap[:, 1]) <= tol))
    return pts[keep], owner[keep]


# ---------------------------------------------------------------------------
# plain-text mesh file format
# ---------------------------------------------------------------------------

_HEADER = "cdgmesh 1 2d"


def save_mesh(mesh, path):
    """Write a mesh in the plain-text format (header, vertices, CCW cells)."""
    ids, offsets = mesh.cell_vertex_ids.tolist(), mesh.cell_offsets.tolist()
    lines = [_HEADER, f"vertices {mesh.n_vertices}"]
    lines += [f"{x!r} {y!r}" for x, y in mesh.vertices.tolist()]
    lines.append(f"cells {mesh.n_cells}")
    lines += [" ".join(map(str, ids[a:b]))
              for a, b in zip(offsets[:-1], offsets[1:])]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh file; clockwise cells are re-oriented with a warning."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"{path}:{lineno + 1}: {msg}")

    if not lines or lines[0].strip() != _HEADER:
        fail(0, f"expected header '{_HEADER}'")
    ln = 1
    if ln >= len(lines) or not lines[ln].startswith("vertices "):
        fail(ln, "expected 'vertices N'")
    try:
        n_verts = int(lines[ln].split()[1])
    except (IndexError, ValueError):
        fail(ln, "bad vertex count")
    if n_verts < 1:
        fail(ln, f"vertex count must be positive, got {n_verts}")
    ln += 1
    verts = []
    for i in range(n_verts):
        try:
            x, y = lines[ln + i].split()
            verts.append((float(x), float(y)))
        except (IndexError, ValueError):
            fail(ln + i, "expected 'x y'")
        if not (math.isfinite(verts[i][0]) and math.isfinite(verts[i][1])):
            fail(ln + i, f"vertex {i} is not finite: {x} {y}")
    ln += n_verts
    if ln >= len(lines) or not lines[ln].startswith("cells "):
        fail(ln, "expected 'cells M'")
    try:
        n_cells = int(lines[ln].split()[1])
    except (IndexError, ValueError):
        fail(ln, "bad cell count")
    if n_cells < 1:
        fail(ln, f"cell count must be positive, got {n_cells}")
    ln += 1
    flat, counts = [], []
    for i in range(n_cells):
        try:
            ids = [int(t) for t in lines[ln + i].split()]
        except (IndexError, ValueError):
            fail(ln + i, "expected vertex indices")
        if len(ids) < 3:
            fail(ln + i, "cell needs at least 3 vertices")
        if min(ids) < 0 or max(ids) >= n_verts:
            fail(ln + i, "vertex index out of range")
        flat += ids
        counts.append(len(ids))
    verts, ids = np.array(verts), np.array(flat, dtype=np.int64)
    offsets = np.r_[0, np.cumsum(counts)]
    owner = np.repeat(np.arange(n_cells), counts)
    clockwise = _loop_areas(verts[ids], owner) < 0
    for c in np.flatnonzero(clockwise):
        warnings.warn(f"cell {c} in {path} was clockwise; re-oriented",
                      stacklevel=2)
    # reverse the loops of the clockwise cells
    pos = np.arange(len(ids))
    flip = clockwise[owner]
    pos[flip] = (offsets[owner] + offsets[owner + 1] - 1 - pos)[flip]
    return Mesh(verts, _Loops(offsets, ids[pos]))
