"""Field output: legacy-VTK unstructured grids and uniform-lattice CSV."""

import json

import numpy as np

__all__ = [
    "write_vtk",
    "write_lattice_csv",
    "write_summary",
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
    ids, offsets = mesh.cell_vertex_ids.tolist(), mesh.cell_offsets.tolist()
    lines = ["# vtk DataFile Version 3.0", "brinkman cdg fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x:.16g} {y:.16g} 0.0" for x, y in mesh.vertices.tolist()]
    lines.append(f"CELLS {mesh.n_cells} {mesh.n_cells + len(ids)}")
    lines += [f"{b - a} " + " ".join(map(str, ids[a:b]))
              for a, b in zip(offsets[:-1], offsets[1:])]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += ["7"] * mesh.n_cells
    lines.append(f"CELL_DATA {mesh.n_cells}")
    for name, values in cell_data.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [f"{v:.16g}" for v in np.asarray(values, float).tolist()]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _lattice_cells(mesh, xs, ys):
    """Lattice points (xs[i], ys[j]) in the order of j, then i, that lie in
    a cell, and for each the lowest-numbered cell that contains it.

    Each cell tests the lattice points of its bounding box and the next
    point beyond it on each side, so that rounding drops no point on an
    edge.  A cell is the union of the triangles that fan it from its
    centroid, as ``Mesh`` accepts any cell star-shaped about its centroid.
    A point is inside a counterclockwise triangle iff no side's cross
    product falls below -1e-12 times the side's scale (at least 1).
    """
    # (max edges, n_cells) per coordinate of each fan triangle's corners a
    # and b; a cell of fewer edges repeats its last triangle
    counts = mesh.cells.edge_count
    local = np.minimum(np.arange(counts.max()), counts[:, None] - 1).T
    loop = mesh.cell_vertex_ids[mesh.cell_offsets[:-1]
                                + np.stack([local, (local + 1) % counts])]
    (ax, bx), (ay, by) = np.moveaxis(mesh.vertices[loop], -1, 0)
    x0 = np.maximum(xs.searchsorted(ax.min(0)) - 1, 0)
    y0 = np.maximum(ys.searchsorted(ay.min(0)) - 1, 0)
    nx = np.minimum(xs.searchsorted(ax.max(0), "right"), len(xs) - 1) - x0 + 1
    ny = np.minimum(ys.searchsorted(ay.max(0), "right"), len(ys) - 1) - y0 + 1
    count = nx * ny
    cell = np.repeat(np.arange(mesh.n_cells), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    ix = x0[cell] + k % nx[cell]
    iy = y0[cell] + k // nx[cell]
    px, py = xs[ix], ys[iy]
    cx, cy = np.broadcast_to(mesh.cells.centroid.T[:, None], (2,) + ax.shape)
    # each triangle's sides a -> b -> centroid -> a: start, direction, bound
    sides = [(x, y, u - x, v - y,
              -1e-12 * np.maximum(np.abs(u - x) + np.abs(v - y), 1.0))
             for (x, y), (u, v) in (((ax, ay), (bx, by)),
                                    ((bx, by), (cx, cy)),
                                    ((cx, cy), (ax, ay)))]
    inside = np.zeros(len(cell), bool)
    for e in range(len(local)):
        # the pairs not yet inside that pass each side of triangle e
        at = np.flatnonzero(~inside)
        for x, y, dx, dy, bound in sides:
            c = cell[at]
            at = at[dx[e][c] * (py[at] - y[e][c])
                    - dy[e][c] * (px[at] - x[e][c]) >= bound[e][c]]
        inside[at] = True
    at = np.flatnonzero(inside)
    # the pairs stay in ascending cell order: a point's first is its lowest
    hit, first = np.unique(iy[at] * len(xs) + ix[at], return_index=True)
    return (np.column_stack([xs[hit % len(xs)], ys[hit // len(xs)]]),
            cell[at[first]])


def write_lattice_csv(path, disc, u, p, resolution):
    """Sample u1, u2, p on a resolution x resolution lattice of cell-center
    points.

    Columns: x, y, u1, u2, p.  Each point is sampled in the lowest-numbered
    cell that contains it (see ``_lattice_cells``); points outside every
    cell, possible only for meshes that do not cover their bounding box,
    are skipped.
    """
    lo, hi = disc.mesh.bbox
    xs = lo[0] + (np.arange(resolution) + 0.5) / resolution * (hi[0] - lo[0])
    ys = lo[1] + (np.arange(resolution) + 0.5) / resolution * (hi[1] - lo[1])
    pts, cells = _lattice_cells(disc.mesh, xs, ys)
    vel = disc.velocity_values(u, cells, pts)
    pv = disc.pressure_values(p, cells, pts)
    with open(path, "w", encoding="utf-8") as f:
        f.write("x,y,u1,u2,p\n")
        f.writelines(f"{x:.10g},{y:.10g},{a:.10e},{b:.10e},{c:.10e}\n"
                     for (x, y), (a, b), c in zip(pts.tolist(), vel.tolist(),
                                                  pv.tolist()))


def write_summary(path, disc, solution, fields, extra=None):
    """JSON run summary: sizes, residual, solver stats, the Gram condition
    estimates and the ranges of ``fields`` (name -> per-cell values, as
    :func:`cell_center_fields` returns them)."""
    data = {
        "n_cells": disc.mesh.n_cells,
        "dof_velocity": disc.n_velocity_dofs,
        "dof_pressure": disc.n_pressure_dofs,
        "residual": solution.residual,
        "multiplier": solution.multiplier,
        "pressure_mean": solution.stats.get("pressure_mean"),
        "gram_condition": {str(j): v
                           for j, v in disc.gram_condition.items()},
        "solver": {key: solution.stats.get(key) for key in (
            "ordering", "regularization", "nnz_factor", "fronts",
            "max_front", "factor_flops", "blas_threads",
            "refinement_residuals", "inner_iterations")},
        "ranges": {name: [float(v.min()), float(v.max())]
                   for name, v in fields.items()},
    }
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
