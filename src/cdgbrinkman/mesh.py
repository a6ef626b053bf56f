"""2D polytopal meshes of rectangular domains: topology, generators, file I/O.

A mesh is a partition of a planar domain into simple CCW polygons with full
cell/edge incidence.  Edges are derived from the cell lists and oriented from
the lower-indexed incident cell, so jump signs are deterministic.
"""

import math
import warnings

import numpy as np

__all__ = [
    "Cell",
    "Edge",
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


class Cell:
    """One polygonal cell: CCW vertex loop plus derived geometry.

    Attributes
    ----------
    vertex_ids : ndarray of int
        CCW vertex indices, no repeats.
    edge_ids : ndarray of int
        Edge indices in traversal order (edge i joins vertex i to i+1).
    centroid : ndarray shape (2,)
        Area centroid.
    area : float
        Positive (shoelace) area.
    diameter : float
        Max pairwise vertex distance.
    edge_count : int
    """

    __slots__ = ("index", "vertex_ids", "edge_ids", "centroid", "area",
                 "diameter", "edge_count")

    def __init__(self, index, vertex_ids, coords):
        self.index = index
        self.vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        pts = coords[self.vertex_ids]
        x, y = pts[:, 0], pts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area2 = cross.sum()
        self.area = 0.5 * area2
        if self.area <= 0.0:
            raise MeshValidationError(
                f"cell {index} is not counter-clockwise (signed area {self.area:g})")
        cx = ((x + xn) * cross).sum() / (3.0 * area2)
        cy = ((y + yn) * cross).sum() / (3.0 * area2)
        self.centroid = np.array([cx, cy])
        d = pts[:, None, :] - pts[None, :, :]
        self.diameter = float(np.sqrt((d ** 2).sum(-1)).max())
        self.edge_count = len(self.vertex_ids)
        self.edge_ids = None  # filled by Mesh


class Edge:
    """One mesh edge with its incidence and unit normal.

    The normal points out of ``cell_minus``; ``cell_plus`` is None on the
    boundary.  Quadrature on the edge is parametrized by the stored endpoint
    order (v0, v1), which both incident cells share.
    """

    __slots__ = ("index", "v0", "v1", "length", "cell_minus", "cell_plus",
                 "normal", "midpoint")

    def __init__(self, index, v0, v1, coords):
        self.index = index
        self.v0 = v0
        self.v1 = v1
        p0, p1 = coords[v0], coords[v1]
        t = p1 - p0
        self.length = float(np.hypot(t[0], t[1]))
        if self.length <= 0.0:
            raise MeshValidationError(f"edge {index} has zero length")
        self.midpoint = 0.5 * (p0 + p1)
        self.cell_minus = None
        self.cell_plus = None
        self.normal = None

    @property
    def is_boundary(self):
        return self.cell_plus is None


class Mesh:
    """Immutable polygonal partition with cell/edge incidence.

    Parameters
    ----------
    vertices : (n, 2) array
    cell_vertex_ids : sequence of index sequences
        CCW vertex loops, one per cell.
    labeled_h : float, optional
        Nominal mesh size 1/n_div used to label refinement levels; the
        geometric ``h`` (max cell diameter) is always computed.

    ``edge_vertices`` (n_edges, 2) holds each edge's (v0, v1).
    """

    def __init__(self, vertices, cell_vertex_ids, labeled_h=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertices must be an (n, 2) array")
        self.cells = [Cell(i, ids, self.vertices)
                      for i, ids in enumerate(cell_vertex_ids)]
        self.edges = self._build_edges()
        self.h = max(c.diameter for c in self.cells)
        self.labeled_h = self.h if labeled_h is None else float(labeled_h)
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        self.bbox = (lo, hi)
        self.boundary_edge_ids = np.array(
            [e.index for e in self.edges if e.is_boundary], dtype=np.int64)
        self.interior_edge_ids = np.array(
            [e.index for e in self.edges if not e.is_boundary], dtype=np.int64)
        self.validate()

    # -- construction -----------------------------------------------------

    def _build_edges(self):
        edge_of_pair = {}
        edges = []
        pairs = []
        # first pass: discover edges keyed by the unordered vertex pair
        for cell in self.cells:
            ids = cell.vertex_ids
            cell_edges = []
            for a, b in zip(ids, np.roll(ids, -1)):
                key = (min(a, b), max(a, b))
                if key not in edge_of_pair:
                    e = Edge(len(edges), key[0], key[1], self.vertices)
                    edge_of_pair[key] = e
                    edges.append(e)
                    pairs.append(key)
                e = edge_of_pair[key]
                if e.cell_minus is None:
                    e.cell_minus = cell.index
                elif e.cell_plus is None:
                    e.cell_plus = cell.index
                else:
                    raise MeshValidationError(
                        f"edge ({key[0]}, {key[1]}) is shared by more than two "
                        f"cells ({e.cell_minus}, {e.cell_plus}, {cell.index})")
                cell_edges.append(e.index)
            cell.edge_ids = np.array(cell_edges, dtype=np.int64)
        self.edge_vertices = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        # second pass: orient normals out of cell_minus
        for e in edges:
            minus = self.cells[e.cell_minus]
            p0, p1 = self.vertices[e.v0], self.vertices[e.v1]
            t = (p1 - p0) / e.length
            n = np.array([t[1], -t[0]])  # right-hand normal of v0->v1
            # v0->v1 agrees with CCW traversal of cell_minus iff n is outward
            ids = list(minus.vertex_ids)
            k = ids.index(e.v0)
            if ids[(k + 1) % len(ids)] != e.v1:
                n = -n
            e.normal = n
        return edges

    # -- queries -----------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def cell_vertices(self, c):
        """Coordinates of cell c's vertex loop, shape (n, 2)."""
        return self.vertices[self.cells[c].vertex_ids]

    def outward_normal(self, edge, cell_index):
        """Unit normal of ``edge`` pointing out of ``cell_index``."""
        if cell_index == edge.cell_minus:
            return edge.normal
        if cell_index == edge.cell_plus:
            return -edge.normal
        raise ValueError(f"cell {cell_index} is not incident to edge {edge.index}")

    def neighbor(self, edge, cell_index):
        """The cell across ``edge`` from ``cell_index`` (None on the boundary)."""
        if cell_index == edge.cell_minus:
            return edge.cell_plus
        return edge.cell_minus

    def total_area(self):
        return sum(c.area for c in self.cells)

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check the structural invariants; raise MeshValidationError.

        Besides simple cells and unit normals, the mesh must be conforming:
        every boundary edge lies on the bounding box and V - E + F = 1.
        """
        for cell in self.cells:
            if len(set(cell.vertex_ids.tolist())) != len(cell.vertex_ids):
                raise MeshValidationError(f"cell {cell.index} repeats a vertex")
            if cell.edge_count < 3:
                raise MeshValidationError(f"cell {cell.index} has <3 edges")
            if _polygon_self_intersects(self.vertices[cell.vertex_ids]):
                raise MeshValidationError(f"cell {cell.index} self-intersects")
        for e in self.edges:
            if e.cell_minus is None:
                raise MeshValidationError(f"edge {e.index} has no incident cell")
            nrm = np.hypot(e.normal[0], e.normal[1])
            if abs(nrm - 1.0) > 1e-14:
                raise MeshValidationError(f"edge {e.index} normal not unit")
            t = self.vertices[e.v1] - self.vertices[e.v0]
            if abs(np.dot(t, e.normal)) > 1e-14 * e.length:
                raise MeshValidationError(f"edge {e.index} normal not perpendicular")
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


def _polygon_self_intersects(pts):
    """Exact-ish O(n^2) segment crossing test; adjacent edges excluded."""
    n = len(pts)
    segs = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*segs[i], *segs[j]):
                return True
    return False


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _segments_cross(p, q, r, s):
    d1 = _cross2(q - p, r - p)
    d2 = _cross2(q - p, s - p)
    d3 = _cross2(s - r, p - r)
    d4 = _cross2(s - r, q - r)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


# ---------------------------------------------------------------------------
# generators (unit square)
# ---------------------------------------------------------------------------

def generate_uniform_triangular(n_div):
    """Uniform triangulation of the unit square: n x n squares, each split
    along the same diagonal into two triangles (2 n^2 cells)."""
    if n_div < 1:
        raise ValueError("n_div must be >= 1")
    n = int(n_div)
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    verts = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    cells = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            # split along the b-d diagonal, both triangles CCW
            cells.append([a, b, d])
            cells.append([b, c, d])
    return Mesh(verts, cells, labeled_h=1.0 / n)


def generate_uniform_rectangular(n_div):
    """Uniform n x n partition of the unit square into axis-aligned squares."""
    if n_div < 1:
        raise ValueError("n_div must be >= 1")
    n = int(n_div)
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    verts = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])
    cells = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n)]
    return Mesh(verts, cells, labeled_h=1.0 / n)


def generate_polygonal(n_div):
    """Hexagon-dominant polygonal partition of the unit square.

    Cells are the Voronoi (Wigner-Seitz) hexagons of an offset-row point
    lattice, clipped to the square.  The lattice is aligned so the square's
    corners are generators, which caps the per-cell edge count at 6 (quarter
    and half hexagons appear along the boundary).  Labeled mesh size is
    1/n_div; the hexagon width is exactly 1/n_div.
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
    cells_pts = []
    for r in range(ny + 1):
        off = 0.5 * a if r % 2 else 0.0
        for i in range(-1, nx + 2):
            center = np.array([i * a + off, r * b])
            poly = _clip_to_unit_square(hexagon + center)
            if poly is not None and _shoelace(poly) > 1e-12 * a * b:
                cells_pts.append(poly)
    return _mesh_from_polygons(cells_pts, labeled_h=1.0 / nx, snap=1e-12)


def _shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _clip_to_unit_square(poly):
    """Sutherland-Hodgman clip of a convex CCW polygon to [0,1]^2."""
    halfplanes = [(np.array([1.0, 0.0]), 0.0), (np.array([-1.0, 0.0]), -1.0),
                  (np.array([0.0, 1.0]), 0.0), (np.array([0.0, -1.0]), -1.0)]
    pts = list(poly)
    for nrm, c in halfplanes:
        if not pts:
            return None
        out = []
        prev = pts[-1]
        dprev = np.dot(nrm, prev) - c
        for cur in pts:
            dcur = np.dot(nrm, cur) - c
            if dcur >= -1e-15:
                if dprev < -1e-15:
                    t = dprev / (dprev - dcur)
                    out.append(prev + t * (cur - prev))
                out.append(cur)
            elif dprev >= -1e-15:
                t = dprev / (dprev - dcur)
                out.append(prev + t * (cur - prev))
            prev, dprev = cur, dcur
        pts = out
    if len(pts) < 3:
        return None
    return _dedupe_loop(np.array(pts))


def _dedupe_loop(pts, tol=1e-12):
    keep = []
    for p in pts:
        if not keep or np.hypot(*(p - keep[-1])) > tol:
            keep.append(p)
    if len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= tol:
        keep.pop()
    if len(keep) < 3:
        return None
    return np.array(keep)


def _mesh_from_polygons(polys, labeled_h, snap):
    """Merge per-cell vertex loops into a shared vertex table."""
    table = {}
    verts = []
    cells = []
    for poly in polys:
        ids = []
        for p in poly:
            key = (round(p[0] / snap), round(p[1] / snap))
            if key not in table:
                table[key] = len(verts)
                verts.append(p)
            ids.append(table[key])
        cells.append(ids)
    return Mesh(np.array(verts), cells, labeled_h=labeled_h)


# ---------------------------------------------------------------------------
# plain-text mesh file format
# ---------------------------------------------------------------------------

_HEADER = "cdgmesh 1 2d"


def save_mesh(mesh, path):
    """Write a mesh in the plain-text format (header, vertices, CCW cells)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_HEADER + "\n")
        f.write(f"vertices {mesh.n_vertices}\n")
        for x, y in mesh.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"cells {mesh.n_cells}\n")
        for cell in mesh.cells:
            f.write(" ".join(str(v) for v in cell.vertex_ids) + "\n")


def load_mesh(path, labeled_h=None):
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
    ln += 1
    verts = np.empty((n_verts, 2))
    for i in range(n_verts):
        try:
            x, y = lines[ln + i].split()
            verts[i] = (float(x), float(y))
        except (IndexError, ValueError):
            fail(ln + i, "expected 'x y'")
    ln += n_verts
    if ln >= len(lines) or not lines[ln].startswith("cells "):
        fail(ln, "expected 'cells M'")
    try:
        n_cells = int(lines[ln].split()[1])
    except (IndexError, ValueError):
        fail(ln, "bad cell count")
    ln += 1
    cells = []
    for i in range(n_cells):
        try:
            ids = [int(t) for t in lines[ln + i].split()]
        except (IndexError, ValueError):
            fail(ln + i, "expected vertex indices")
        if len(ids) < 3:
            fail(ln + i, "cell needs at least 3 vertices")
        if any(t < 0 or t >= n_verts for t in ids):
            fail(ln + i, "vertex index out of range")
        pts = verts[np.array(ids)]
        if _shoelace(pts) < 0:
            warnings.warn(f"cell {i} in {path} was clockwise; re-oriented",
                          stacklevel=2)
            ids = ids[::-1]
        cells.append(ids)
    return Mesh(verts, cells, labeled_h=labeled_h)
