import numpy as np
import pytest

from cdgbrinkman.mesh import (Mesh, MeshFormatError, MeshValidationError,
                              generate_polygonal, generate_uniform_rectangular,
                              generate_uniform_triangular, load_mesh, save_mesh)
from cdgbrinkman.polyspace import edge_quadrature

from conftest import MESH_FAMILIES


def test_triangular_unit():
    m = generate_uniform_triangular(1)
    assert m.n_cells == 2
    assert m.n_edges == 5
    assert len(m.boundary_edge_ids) == 4


def test_triangular_counts_and_h():
    m = generate_uniform_triangular(4)
    assert m.n_cells == 32
    assert len(m.boundary_edge_ids) == 16
    assert m.h == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-14)
    assert m.labeled_h == pytest.approx(0.25)


def test_rectangular_counts():
    m1 = generate_uniform_rectangular(1)
    assert m1.n_cells == 1
    assert len(m1.boundary_edge_ids) == 4
    m8 = generate_uniform_rectangular(8)
    assert m8.n_cells == 64
    assert all(abs(c.area - 1.0 / 64.0) < 1e-14 for c in m8.cells)
    assert all(c.edge_count == 4 for c in m8.cells)


def test_rectangular_examples_resolution():
    m = generate_uniform_rectangular(128)
    assert m.n_cells == 16384


@pytest.mark.parametrize("n", [2, 4, 8])
def test_polygonal_validity(n):
    m = generate_polygonal(n)
    assert m.total_area() == pytest.approx(1.0, abs=1e-12)
    assert m.euler_characteristic() == 1
    counts = {c.edge_count for c in m.cells}
    assert max(counts) <= 7
    assert 6 in counts  # hexagon-dominant interior


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_partition_and_euler(family):
    m = MESH_FAMILIES[family](4)
    assert m.total_area() == pytest.approx(1.0, abs=1e-12)
    assert m.euler_characteristic() == 1


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_normals_antisymmetric_and_unit(family):
    m = MESH_FAMILIES[family](4)
    for e in m.edges:
        n_minus = m.outward_normal(e, e.cell_minus)
        assert np.hypot(*n_minus) == pytest.approx(1.0, abs=1e-14)
        if not e.is_boundary:
            n_plus = m.outward_normal(e, e.cell_plus)
            assert np.abs(n_minus + n_plus).max() < 1e-14


def test_cell_geometry():
    m = generate_uniform_triangular(2)
    for c in m.cells:
        assert c.area > 0
        pts = m.cell_vertices(c.index)
        d = max(np.hypot(*(p - q)) for p in pts for q in pts)
        assert c.diameter == pytest.approx(d)
    assert m.h == max(c.diameter for c in m.cells)
    for e in m.edges:
        p0, p1 = m.vertices[e.v0], m.vertices[e.v1]
        assert e.length == pytest.approx(np.hypot(*(p1 - p0)))


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_shared_edge_quadrature_points(family):
    # Both incident cells parametrize an edge through the same stored
    # endpoints, so quadrature points coincide bit-for-bit; check the
    # geometric statement that the rule spans the segment either way.
    m = MESH_FAMILIES[family](4)
    for eid in m.interior_edge_ids[:20]:
        e = m.edges[eid]
        rule = edge_quadrature(m.vertices[e.v0], m.vertices[e.v1], 5)
        t = m.vertices[e.v1] - m.vertices[e.v0]
        rel = rule.points - m.vertices[e.v0]
        off = rel[:, 0] * t[1] - rel[:, 1] * t[0]
        assert np.abs(off).max() < 1e-13


def test_save_load_roundtrip(tmp_path):
    m = generate_uniform_triangular(4)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path, labeled_h=m.labeled_h)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.n_cells == m2.n_cells
    for a, b in zip(m.cells, m2.cells):
        assert np.array_equal(a.vertex_ids, b.vertex_ids)
    assert m.n_edges == m2.n_edges


def test_load_reorients_clockwise_cell(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text(
        "cdgmesh 1 2d\n"
        "vertices 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
        "cells 1\n0 3 2 1\n")
    with pytest.warns(UserWarning, match="re-oriented"):
        m = load_mesh(path)
    assert m.cells[0].area == pytest.approx(1.0)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cdgmesh 1 2d\nvertices 2\n0 0\n")
    with pytest.raises(MeshFormatError, match="bad.txt:4"):
        load_mesh(path)
    path.write_text("nope\n")
    with pytest.raises(MeshFormatError, match="header"):
        load_mesh(path)


def test_edge_shared_by_three_cells_rejected():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, -1], [2, 0.5]]
    cells = [[0, 1, 2, 3], [0, 4, 1], [0, 1, 5]]  # edge (0,1) used 3 times
    with pytest.raises(MeshValidationError, match="more than two"):
        Mesh(verts, cells)


def test_self_intersecting_cell_rejected():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshValidationError):
        Mesh(verts, [[0, 1, 3, 2]])  # bow-tie


# the hanging vertex 6 = (1, 1) splits the right side of the left cell
HANGING_VERTS = [[0, 0], [1, 0], [2, 0], [0, 2], [1, 2], [2, 2], [1, 1],
                 [2, 1]]


def test_hanging_node_mesh_rejected():
    # the left cell skips vertex 6, so its right side and the two halves
    # on x = 1 each have one cell and would get Dirichlet data
    with pytest.raises(MeshValidationError, match=(
            r"boundary edge 1 \(vertices 1 \(1\.0, 0\.0\) and 4 "
            r"\(1\.0, 2\.0\)\) lies inside the domain")):
        Mesh(HANGING_VERTS, [[0, 1, 4, 3], [1, 2, 7, 6], [6, 7, 5, 4]])


def test_collinear_vertex_pentagon_accepted():
    mesh = Mesh(HANGING_VERTS, [[0, 1, 6, 4, 3], [1, 2, 7, 6], [6, 7, 5, 4]])
    assert mesh.euler_characteristic() == 1
    assert len(mesh.boundary_edge_ids) == 7


def test_unused_vertex_rejected():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    with pytest.raises(MeshValidationError, match="V - E \\+ F = 2"):
        Mesh(verts, [[0, 1, 2, 3]])
