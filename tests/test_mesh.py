import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgbrinkman.mesh import (Mesh, MeshFormatError, MeshValidationError,
                              generate_polygonal, generate_uniform_rectangular,
                              generate_uniform_triangular, load_mesh, save_mesh)

from polyref import cell_quadrature, edge_quadrature
from conftest import (MESH_FAMILIES, NOTCH_ON_CENTROID, normal_out_of,
                      notched_square)


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
    assert m.cells.area.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.euler_characteristic() == 1
    counts = {c.edge_count for c in m.cells}
    assert max(counts) <= 7
    assert 6 in counts  # hexagon-dominant interior


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_partition_and_euler(family):
    m = MESH_FAMILIES[family](4)
    assert m.cells.area.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.euler_characteristic() == 1


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_normals_antisymmetric_and_unit(family):
    m = MESH_FAMILIES[family](4)
    for e, (minus, plus) in enumerate(m.edge_cells):
        n_minus = normal_out_of(m, e, minus)
        assert np.hypot(*n_minus) == pytest.approx(1.0, abs=1e-14)
        if plus >= 0:
            n_plus = normal_out_of(m, e, plus)
            assert np.abs(n_minus + n_plus).max() < 1e-14


def test_cell_geometry():
    m = generate_uniform_triangular(2)
    for i, c in enumerate(m.cells):
        assert c.area > 0
        pts = m.cell_vertices(i)
        d = max(np.hypot(*(p - q)) for p in pts for q in pts)
        assert c.diameter == pytest.approx(d)
    assert m.h == max(c.diameter for c in m.cells)
    for (v0, v1), length in zip(m.edge_vertices, m.edge_lengths):
        p0, p1 = m.vertices[v0], m.vertices[v1]
        assert length == pytest.approx(np.hypot(*(p1 - p0)))


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_shared_edge_quadrature_points(family):
    # Both incident cells parametrize an edge through the same stored
    # endpoints, so quadrature points coincide bit-for-bit; check the
    # geometric statement that the rule spans the segment either way.
    m = MESH_FAMILIES[family](4)
    for e in m.interior_edge_ids[:20]:
        p0, p1 = m.vertices[m.edge_vertices[e]]
        rule = edge_quadrature(p0, p1, 5)
        t = p1 - p0
        rel = rule.points - p0
        off = rel[:, 0] * t[1] - rel[:, 1] * t[0]
        assert np.abs(off).max() < 1e-13


def test_save_load_roundtrip(tmp_path):
    m = generate_uniform_triangular(4)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.n_cells == m2.n_cells
    assert np.array_equal(m.cell_offsets, m2.cell_offsets)
    assert np.array_equal(m.cell_vertex_ids, m2.cell_vertex_ids)
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


def test_sliver_cell_with_degenerate_fan_triangle_rejected():
    # the fan triangles (v_i, v_i+1, centroid) of this sliver have areas
    # near 1e-20, far below 1e-14 h_T^2
    sliver = np.array([[0, 0], [1, 0], [2, 0], [1, 1e-20]])
    with pytest.raises(MeshValidationError,
                       match="cell 0 is not star-shaped about its centroid"):
        Mesh(sliver, [[0, 1, 2, 3]])


@pytest.mark.parametrize("x", [0.3, NOTCH_ON_CENTROID],
                         ids=["centroid-outside", "centroid-on-edge-line"])
def test_cell_not_star_shaped_about_centroid_rejected(x):
    # the fan rule would integrate over triangles outside the cell (area
    # 1.035 against 0.86 at x = 0.3) or of no area
    with pytest.raises(MeshValidationError,
                       match="cell 0 is not star-shaped about its centroid"):
        Mesh(*notched_square(x))


def test_nonconvex_cell_star_shaped_about_centroid_accepted():
    # the unit square dented from the top to (0.5, 0.5), and the triangle
    # that fills the dent; the fan rule then integrates the dented area
    verts = [[0, 0], [1, 0], [1, 1], [0.5, 0.5], [0, 1]]
    mesh = Mesh(verts, [[0, 1, 2, 3, 4], [3, 2, 4]])
    rule = cell_quadrature(mesh.cell_vertices(0), 2)
    assert rule.weights.sum() == pytest.approx(0.75, abs=1e-14)


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


def test_non_finite_vertex_rejected_naming_it():
    verts = [[0, 0], [1, 0], [np.inf, 1], [0, 1]]
    with pytest.raises(MeshValidationError, match="vertex 2 has non-finite"):
        Mesh(verts, [[0, 1, 2, 3]])


@pytest.mark.parametrize("loops, what", [
    ([[0, 1, 2, 3], [-4, 1, 2]], r"cell 1 has vertex id -4 outside \[0, 4\)"),
    ([[0, 1, 2, 7]], r"cell 0 has vertex id 7 outside \[0, 4\)"),
    (np.array([[0, 1, 4]]), r"cell 0 has vertex id 4 outside \[0, 4\)"),
    ([], "mesh has no cells"),
    (np.zeros((0, 3), dtype=int), "mesh has no cells"),
])
def test_vertex_ids_range_checked(loops, what):
    # numpy would wrap a negative id and raise a bare IndexError or a
    # zero-size reduction error for the others
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshValidationError, match=what):
        Mesh(verts, loops)


@pytest.mark.parametrize("loops, integral, value", [
    ([[0, 1, 2, 3.5]], [[0, 1, 2, 3.0]], "3.5"),
    (np.array([[0, 1, 2, 3.7]]), np.array([[0, 1, 2, 3.0]]), "3.7"),
], ids=["list", "array"])
def test_non_integer_vertex_id_rejected(loops, integral, value):
    # the id would otherwise be truncated to 3 and the mesh built
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    with pytest.raises(MeshValidationError,
                       match=f"cell 0 has non-integer vertex id {value}"):
        Mesh(verts, loops)
    assert Mesh(verts, integral).cell_vertex_ids.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("body, line, what", [
    ("vertices -1\n", 2, "vertex count must be positive"),
    ("vertices 4\n0 0\n1 0\n1 1\n0 1\ncells 0\n", 7,
     "cell count must be positive"),
    ("vertices 4\n0 0\n1 0\n1 1\n0 1\ncells -2\n", 7,
     "cell count must be positive"),
    ("vertices 4\n0 0\n1 0\ninf 1\n0 1\ncells 1\n0 1 2 3\n", 5,
     "vertex 2 is not finite"),
    ("vertices 4\n0 0\n1 0\nnan 1\n0 1\ncells 1\n0 1 2 3\n", 5,
     "vertex 2 is not finite"),
], ids=["vertices-negative", "cells-zero", "cells-negative", "vertex-inf",
        "vertex-nan"])
def test_load_rejects_bad_counts_and_coordinates(tmp_path, body, line, what):
    path = tmp_path / "bad.txt"
    path.write_text("cdgmesh 1 2d\n" + body)
    with pytest.raises(MeshFormatError, match=rf"bad\.txt:{line}: {what}"):
        load_mesh(path)


def _reference_edges(mesh):
    """Edge ids per loop position, ends, cells and normals by a plain loop:
    first occurrence numbers an edge, and its first cell is the minus side
    that the normal points out of."""
    index, ends, cells, normals, ids = {}, [], [], [], []
    for c in range(mesh.n_cells):
        loop = mesh.cell_vertex_ids[mesh.cell_offsets[c]:
                                    mesh.cell_offsets[c + 1]].tolist()
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (min(a, b), max(a, b))
            if key in index:
                cells[index[key]][1] = c
            else:
                index[key] = len(ends)
                ends.append(key)
                cells.append([c, -1])
                t = mesh.vertices[b] - mesh.vertices[a]
                normals.append(np.array([t[1], -t[0]]) / np.hypot(*t))
            ids.append(index[key])
    return [np.array(x) for x in (ids, ends, cells, normals)]


def _check_edge_convention(mesh):
    ids, ends, cells, normals = _reference_edges(mesh)
    assert np.array_equal(mesh.cell_edge_ids, ids)
    assert np.array_equal(mesh.edge_vertices, ends)
    assert np.array_equal(mesh.edge_cells, cells)
    assert np.array_equal(mesh.edge_normals, normals)
    # the two cells of an interior edge traverse it in opposite directions
    loops = np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1])
    directed = [(a, b) for loop in map(list, loops)
                for a, b in zip(loop, loop[1:] + loop[:1])]
    assert len(set(directed)) == len(directed)
    directed = set(directed)
    for v0, v1 in mesh.edge_vertices[mesh.interior_edge_ids].tolist():
        assert (v0, v1) in directed and (v1, v0) in directed
    lo, hi = mesh.bbox
    assert mesh.cells.area.sum() == pytest.approx(np.prod(hi - lo),
                                                  rel=1e-12)


@pytest.mark.parametrize("family, n", [
    (family, n) for family in MESH_FAMILIES for n in range(1, 9)
    if family != "poly" or n >= 2])  # the polygonal family starts at 2
def test_edge_convention_matches_reference(family, n):
    _check_edge_convention(MESH_FAMILIES[family](n))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=st.sampled_from(sorted(MESH_FAMILIES)), n=st.integers(2, 5),
       seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(0.0, 0.1))
def test_edge_convention_on_perturbed_permuted_meshes(family, n, seed,
                                                      amplitude):
    base = MESH_FAMILIES[family](n)
    rng = np.random.default_rng(seed)
    v = base.vertices.copy()
    inside = np.all((v > 1e-9) & (v < 1.0 - 1e-9), axis=1)
    v[inside] += amplitude * base.labeled_h * rng.uniform(
        -1.0, 1.0, (inside.sum(), 2))
    loops = np.split(base.cell_vertex_ids, base.cell_offsets[1:-1])
    _check_edge_convention(
        Mesh(v, [loops[c] for c in rng.permutation(len(loops))]))
