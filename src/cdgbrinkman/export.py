"""Field output: legacy-VTK unstructured grids and uniform-lattice CSV."""

import json

import numpy as np

__all__ = [
    "write_vtk",
    "write_lattice_csv",
    "write_summary",
    "CellLocator",
    "cell_center_fields",
]


def cell_center_fields(disc, u, p):
    """Per-cell centroid values of p, u1, u2 as arrays of length n_cells."""
    cells = np.arange(disc.mesh.n_cells)
    centroids = disc.mesh.cells.centroid
    vel = disc.velocity_values(u, cells, centroids)
    return {"p": disc.pressure_values(p, cells, centroids),
            "u1": vel[:, 0], "u2": vel[:, 1]}


def write_vtk(path, mesh, cell_data):
    """Legacy ASCII VTK unstructured grid with per-cell scalar fields.

    Cells are written as VTK_POLYGON (type 7), which covers triangles,
    quads, and general polygons alike.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("brinkman cdg fields\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.16g} {y:.16g} 0.0\n")
        f.write(f"CELLS {mesh.n_cells} "
                f"{mesh.n_cells + len(mesh.cell_vertex_ids)}\n")
        for ids in np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1]):
            f.write(f"{len(ids)} " + " ".join(map(str, ids.tolist())) + "\n")
        f.write(f"CELL_TYPES {mesh.n_cells}\n")
        f.write("\n".join(["7"] * mesh.n_cells) + "\n")
        f.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, values in cell_data.items():
            f.write(f"SCALARS {name} double 1\n")
            f.write("LOOKUP_TABLE default\n")
            for v in values:
                f.write(f"{v:.16g}\n")


class CellLocator:
    """Uniform-bucket point locator over a mesh (bbox prefilter + winding).

    The bounding box is split into floor(sqrt(n_cells)) buckets per axis.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        lo, hi = mesh.bbox
        self.lo = lo
        self.span = np.maximum(hi - lo, 1e-300)
        self.nb = max(1, int(np.sqrt(mesh.n_cells)))
        # each cell goes into every bucket its bounding box touches
        pts = mesh.vertices[mesh.cell_vertex_ids]
        starts = mesh.cell_offsets[:-1]
        i0, j0 = self._bucket_of(np.minimum.reduceat(pts, starts))
        i1, j1 = self._bucket_of(np.maximum.reduceat(pts, starts))
        ni = i1 - i0 + 1
        count = ni * (j1 - j0 + 1)
        cell = np.repeat(np.arange(mesh.n_cells), count)
        k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        bucket = (j0[cell] + k // ni[cell]) * self.nb + i0[cell] + k % ni[cell]
        # a stable sort keeps each bucket's candidates in ascending cell
        # order; the table is padded with -1
        order = np.argsort(bucket, kind="stable")
        bucket, cell = bucket[order], cell[order]
        per_bucket = np.bincount(bucket, minlength=self.nb * self.nb)
        slot = np.arange(len(cell)) - (np.cumsum(per_bucket)
                                       - per_bucket)[bucket]
        self.table = np.full((len(per_bucket), per_bucket.max()), -1)
        self.table[bucket, slot] = cell
        # polygons padded by repeating the last vertex, whose zero-length
        # edge passes every winding test
        counts = mesh.cells.edge_count
        local = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
        self.polygons = mesh.cell_vertex_ids[mesh.cell_offsets[:-1, None]
                                             + local]

    def _bucket_of(self, point):
        rel = (np.asarray(point) - self.lo) / self.span
        idx = np.clip((rel * self.nb).astype(int), 0, self.nb - 1)
        return idx[..., 0], idx[..., 1]

    def locate_all(self, points):
        """Cell index per point (n,), -1 where no cell contains it.

        Candidates are tried in bucket order, so ties resolve to the first.
        """
        points = np.asarray(points, dtype=float)
        i, j = self._bucket_of(points)
        cand = self.table[j * self.nb + i]
        out = np.full(len(points), -1)
        for col in range(cand.shape[1]):
            todo = np.flatnonzero((out < 0) & (cand[:, col] >= 0))
            c = cand[todo, col]
            pts = self.mesh.vertices[self.polygons[c]]
            edge = np.roll(pts, -1, axis=1) - pts
            rel = points[todo, None, :] - pts
            cross = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
            scale = np.abs(edge).sum(axis=-1)
            # CCW polygon: inside iff no cross product falls below -1e-12
            # times the edge's scale (at least 1)
            inside = np.all(cross >= -1e-12 * np.maximum(scale, 1.0), axis=1)
            out[todo[inside]] = c[inside]
        return out

    def locate(self, point):
        """Index of a cell containing ``point`` (ties resolved to the first)."""
        c = int(self.locate_all(np.asarray(point, dtype=float)[None])[0])
        return None if c < 0 else c


def write_lattice_csv(path, disc, u, p, resolution):
    """Sample u1, u2, p on a resolution x resolution lattice of cell-center
    points.

    Columns: x, y, u1, u2, p.  Points falling outside every cell (possible
    only for non-covering meshes) are skipped.
    """
    mesh = disc.mesh
    lo, hi = mesh.bbox
    xs = lo[0] + (np.arange(resolution) + 0.5) / resolution * (hi[0] - lo[0])
    ys = lo[1] + (np.arange(resolution) + 0.5) / resolution * (hi[1] - lo[1])
    pts = np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])
    cells = CellLocator(mesh).locate_all(pts)
    pts = pts[cells >= 0]
    cells = cells[cells >= 0]
    vel = disc.velocity_values(u, cells, pts)
    pv = disc.pressure_values(p, cells, pts)
    with open(path, "w", encoding="utf-8") as f:
        f.write("x,y,u1,u2,p\n")
        f.writelines(f"{x:.10g},{y:.10g},{a:.10e},{b:.10e},{c:.10e}\n"
                     for (x, y), (a, b), c in zip(pts.tolist(), vel.tolist(),
                                                  pv.tolist()))


def write_summary(path, disc, solution, extra=None):
    """JSON run summary: sizes, residual, solver stats and field ranges."""
    fields = cell_center_fields(disc, solution.u, solution.p)
    data = {
        "n_cells": disc.mesh.n_cells,
        "dof_velocity": disc.n_velocity_dofs,
        "dof_pressure": disc.n_pressure_dofs,
        "residual": solution.residual,
        "multiplier": solution.multiplier,
        "pressure_mean": solution.stats.get("pressure_mean"),
        "solver": {key: solution.stats.get(key) for key in (
            "ordering", "regularization", "nnz_factor", "fronts",
            "max_front", "factor_flops", "refinement_residuals",
            "inner_iterations")},
        "ranges": {name: [float(v.min()), float(v.max())]
                   for name, v in fields.items()},
    }
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
