import numpy as np
import pytest

from cdgbrinkman.mesh import (Mesh, generate_uniform_rectangular,
                              generate_uniform_triangular, load_mesh)
from cdgbrinkman.polyspace import _duffy_reference
from cdgbrinkman.weakgrad import Discretization, target_degree

from polyref import (CellTables, MonomialBasis, cell_quadrature,
                     cell_vertices, edge_average, edge_quadrature,
                     gram_cholesky, gram_matrix, gram_solve, normal_jump,
                     own_basis, own_maps, project_tensor, scalar_jump)
from conftest import (MESH_FAMILIES, normal_out_of, perturbed_mesh,
                      project_scalar_field, random_polynomial)


def _edge_rule(mesh, e, exactness):
    v0, v1 = mesh.edge_vertices[e]
    return edge_quadrature(mesh.vertices[v0], mesh.vertices[v1], exactness)


def _cell_edges(mesh, cell):
    return mesh.cell_edge_ids[mesh.cell_offsets[cell]:
                              mesh.cell_offsets[cell + 1]]


def test_target_degree_rule():
    assert target_degree(3, 1) == 2
    assert target_degree(3, 3) == 4
    assert target_degree(4, 2) == 5
    assert target_degree(4, 3) == 6
    assert target_degree(6, 2) == 7
    assert target_degree(7, 2) == 8


# ---------------------------------------------------------------------------
# tables shared by congruent cells
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, n, keys", [
    ("rect", 16, 9), ("tri", 8, 8), ("poly", 16, 23), ("poly", 64, 23)])
def test_congruent_cells_share_keys(family, n, keys):
    # a key per interior, edge and corner position: cells measured from
    # their first vertex, whose coordinates carry no roundoff of their own
    disc = Discretization(MESH_FAMILIES[family](n), 1)
    assert sum(len(cls.first) for cls in disc.classes) == keys
    for cls in disc.classes:
        assert np.array_equal(np.unique(cls.key), np.arange(len(cls.first)))
        assert np.array_equal(cls.key[cls.first], np.arange(len(cls.first)))


@pytest.mark.parametrize("n", [16, 64])
def test_cells_of_one_key_share_their_centroid_offset(n):
    # a key's cells read tables built about its first cell's centroid, so
    # their own centroids must sit at the same offset from their first
    # vertex; summed in absolute coordinates they missed it by 2e-13 h at
    # n = 16 and 2e-11 h at n = 64
    mesh = MESH_FAMILIES["poly"](n)
    disc = Discretization(mesh, 1)
    offset = (mesh.cells.centroid
              - mesh.vertices[mesh.cell_vertex_ids[mesh.cell_offsets[:-1]]])
    for cls in disc.classes:
        spread = offset[cls.cells] - offset[cls.cells[cls.first]][cls.key]
        assert np.abs(spread).max() <= 1e-14 * mesh.h


@pytest.mark.parametrize("family", ["rect", "poly"])
def test_perturbed_mesh_gives_every_cell_its_own_key(family):
    disc = Discretization(perturbed_mesh(family, 6, 7, 0.1), 1)
    for cls in disc.classes:
        assert np.array_equal(cls.key, np.arange(len(cls.cells)))
        assert np.array_equal(cls.cells, np.sort(cls.cells))


@pytest.mark.parametrize("k", [1, 2])
def test_file_mesh_data_rule_follows_convexity(tmp_path, k):
    # the data points come from n-2 first-vertex triangles only in classes
    # of strictly convex loops; a dented pentagon, star-shaped about its
    # centroid, and a pentagon with three collinear vertices keep the n
    # centroid triangles, as do triangles; the squares beside the latter
    # take two
    files = {
        "dented.txt": "vertices 5\n0 0\n1 0\n1 1\n0.5 0.5\n0 1\n"
                      "cells 2\n0 1 2 3 4\n3 2 4\n",
        "collinear.txt": "vertices 8\n0 0\n1 0\n2 0\n0 2\n1 2\n2 2\n"
                         "1 1\n2 1\ncells 3\n0 1 6 4 3\n1 2 7 6\n"
                         "6 7 5 4\n"}
    fans = {}
    for name, body in files.items():
        path = tmp_path / name
        path.write_text("cdgmesh 1 2d\n" + body)
        disc = Discretization(load_mesh(path), k)
        for cls in disc.classes:
            per_triangle = len(_duffy_reference(
                2 * cls.j + disc.cell_exactness_bump)[2])
            fans[name, cls.ne] = cls.q // per_triangle
            assert cls.q % per_triangle == 0
            assert np.allclose(cls.weights.sum(axis=1),
                               disc.mesh.cells.area[cls.cells], rtol=1e-13)
    assert fans == {("dented.txt", 3): 3, ("dented.txt", 5): 5,
                    ("collinear.txt", 4): 2, ("collinear.txt", 5): 5}


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_shared_tables_match_per_cell_rebuild(family, k):
    # each cell reads the tables its key's first cell was built from; built
    # from the cell's own geometry they agree to roundoff.  On hexagons the
    # degree 7 and 8 tables (Gram condition near 1e10 and 1e12) carry
    # roundoff of their own: the rebuild differs from the library's tables
    # by up to 1e-12 (k = 2) and 8e-12 (k = 3) on the first cells
    # themselves, whose geometry is the same
    disc = Discretization(MESH_FAMILIES[family](8 if family == "poly" else 4),
                          k)
    tol = {("poly", 2): 5e-12, ("poly", 3): 3e-11}.get((family, k), 1e-12)
    jumps = disc.jump_maps()
    for cell in range(disc.mesh.n_cells):
        ct = CellTables(disc, cell)
        rule, basis, _, transform = own_basis(disc, cell, ct.j)
        assert np.abs(ct.points - rule.points).max() <= 1e-14
        assert np.abs(ct.weights - rule.weights).max() <= 1e-12 * (
            rule.weights.max())
        phi = transform @ basis.values(rule.points)
        assert np.abs(ct.phi - phi).max() <= tol * np.abs(phi).max()
        for mine, ref in zip((ct.map(disc.vel), ct.map(disc.pre),
                              ct.map(jumps)), own_maps(disc, cell)):
            assert np.abs(mine - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_condition_bounds_the_worst_cell(family, k):
    # (max L_ii / min L_ii)^2 <= cond(G): the eigenvalues of the triangular
    # L are its diagonal entries, and they lie within its singular values
    disc = Discretization(MESH_FAMILIES[family](4), k)
    assert sorted(disc.gram_condition) == sorted({c.j for c in disc.classes})
    for cls in disc.classes:
        estimate = {}
        for cell in cls.cells:
            diag = np.diag(own_basis(disc, cell, cls.j)[2])
            estimate[cell] = (diag.max() / diag.min()) ** 2
        worst = max(estimate, key=estimate.get)
        rule, basis, _, _ = own_basis(disc, worst, cls.j)
        value = disc.gram_condition[cls.j]
        assert value == pytest.approx(estimate[worst], rel=1e-6)
        assert 1.0 <= value <= np.linalg.cond(gram_matrix(basis, rule))


# ---------------------------------------------------------------------------
# average / jump calculus
# ---------------------------------------------------------------------------

def test_average_and_jump_pointwise():
    vm = np.array([1.0, 2.0])
    vp = np.array([3.0, -2.0])
    assert np.allclose(edge_average(vm, vp), [2.0, 0.0])
    assert np.allclose(edge_average(vm, None), vm)
    assert np.allclose(edge_average(vm, None, boundary_value=0.0), [0.0, 0.0])
    n = np.array([0.0, 1.0])
    vecm = np.array([[1.0, 2.0], [0.0, 1.0]])
    vecp = np.array([[1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(normal_jump(vecm, vecp, n), [3.0, 1.0])
    assert np.allclose(normal_jump(vecm, None, n), [2.0, 1.0])
    j = scalar_jump(np.array([2.0]), np.array([0.5]), n)
    assert np.allclose(j, [[0.0, 1.5]])


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_bases_orthonormal(family, k):
    # the analysis and the constant-pressure vector read coefficients as
    # moments, which holds only if every Gram matrix is the identity
    for n in (4, 8):
        disc = Discretization(MESH_FAMILIES[family](n), k)
        for cell in range(disc.mesh.n_cells):
            ct = CellTables(disc, cell)
            gram = (ct.phi * ct.weights) @ ct.phi.T
            assert np.abs(gram - np.eye(ct.dim)).max() <= 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_moments_against_quadrature(family, k):
    # vx/vy come from the Gram factor; here (d_i phi_a, phi_b) is summed
    # from polyref's term-by-term derivatives on a rule of exactness 2j + 6
    disc = Discretization(MESH_FAMILIES[family](4), k)
    for cell in range(disc.mesh.n_cells):
        ct = CellTables(disc, cell)
        rule = cell_quadrature(cell_vertices(disc.mesh, cell), 2 * ct.j + 6)
        wphi = ct.tables(rule.points, disc.dim_k) * rule.weights
        grads = ct.tables(rule.points, ct.dim, grad=True)
        for vol, grad in zip((ct.vx, ct.vy), grads):
            ref = grad @ wphi.T
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(vol - ref).max() <= 1e-11 * scale


def test_continuous_field_has_zero_jumps(rng):
    # restriction of one global polynomial representable in the space:
    # [v] = 0 and [[q]] = 0 on interior edges
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    fn, _ = random_polynomial(1, rng)
    p = project_scalar_field(disc, fn, "p").ravel()
    for e in mesh.interior_edge_ids:
        minus, plus = mesh.edge_cells[e]
        pts = _edge_rule(mesh, e, 7).points
        qm = disc.pressure_values(p, minus, pts)
        qp = disc.pressure_values(p, plus, pts)
        assert np.abs(qm - qp).max() < 1e-11


def test_average_deviation_norm_identity(rng):
    # || v - {v} ||_e = 1/2 || [v] ||_e on interior edges and = || [v] ||_e
    # on boundary edges (homogeneous trace), checked on normal-directed
    # traces where the identity is exact
    mesh = generate_uniform_rectangular(2)
    disc = Discretization(mesh, 1)
    for e in range(mesh.n_edges):
        rule = _edge_rule(mesh, e, 7)
        n = mesh.edge_normals[e]
        w = rule.weights
        t = np.linspace(0.0, 1.0, len(rule.points))
        vm = np.outer(1.0 + t, n)          # trace from the minus cell
        if mesh.edge_cells[e, 1] < 0:
            avg = np.zeros_like(vm)        # homogeneous boundary average
            dev2 = w @ ((vm - avg) ** 2).sum(axis=1)
            jump = normal_jump(vm, None, n)
            assert np.sqrt(dev2) == pytest.approx(
                np.sqrt(w @ jump ** 2), rel=1e-13)
        else:
            vp = np.outer(2.0 - t, n)      # trace from the plus cell
            avg = edge_average(vm, vp)
            dev2 = w @ ((vm - avg) ** 2).sum(axis=1)
            jump = normal_jump(vm, vp, n)
            assert np.sqrt(dev2) == pytest.approx(
                0.5 * np.sqrt(w @ jump ** 2), rel=1e-13)


def test_unit_scalar_jump_norm():
    # q = 0 on one unit cell, 1 on the other: || [[q]] ||_e^2 = h_e
    verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    mesh = Mesh(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])
    disc = Discretization(mesh, 1)
    p = np.zeros(disc.n_pressure_dofs)
    p[disc.pressure_dofs[1, 0]] = 1.0  # constant one on the second cell
    e = mesh.interior_edge_ids[0]
    minus, plus = mesh.edge_cells[e]
    rule = _edge_rule(mesh, e, 7)
    qm = disc.pressure_values(p, minus, rule.points)
    qp = disc.pressure_values(p, plus, rule.points)
    jump = scalar_jump(qm, qp, mesh.edge_normals[e])
    norm_sq = rule.weights @ (jump ** 2).sum(axis=1)
    assert norm_sq == pytest.approx(mesh.edge_lengths[e], abs=1e-14)


# ---------------------------------------------------------------------------
# defining equation of the lifted gradient, against independent quadrature
# ---------------------------------------------------------------------------

def _sq_rule(x0, y0, n=8):
    # tensor Gauss on the unit square [x0, x0+1] x [y0, y0+1]; independent of
    # the fan/Duffy path used by the library
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0)
    ww = 0.5 * w
    X, Y = np.meshgrid(x0 + t, y0 + t, indexing="ij")
    W = np.outer(ww, ww)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def test_two_cell_brute_force_oracle():
    # two unit squares sharing x = 1; v = 0 on the left, (1, 0) on the
    # right; k = 1.  The weak gradient on the left cell is the projection
    # driven solely by <(1/2, 0), tau n> on the shared edge.
    verts = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    mesh = Mesh(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])
    k = 1
    disc = Discretization(mesh, k)
    # DOFs: x-component is 1 on the right cell, everything else 0
    u = np.zeros(disc.n_velocity_dofs + 1)
    u[disc.velocity_dofs[1, 0, 0]] = 1.0
    ct = CellTables(disc, 0)
    cx, cy = ct.map(disc.vel) @ u[ct.columns(disc.velocity_dofs[:, 0])]
    # the same polynomials in raw monomial coefficients: phi = T monomials
    cx, cy = (ct.transform.T @ c for c in (cx, cy))

    # brute force: dense Gram of the target basis on the left cell via
    # tensor Gauss, rhs only from the shared edge
    basis = ct.basis
    pts, w = _sq_rule(0.0, 0.0, n=10)
    vals = basis.values(pts)
    G = (vals * w) @ vals.T
    xg, wg = np.polynomial.legendre.leggauss(8)
    epts = np.column_stack([np.ones(8), 0.5 * (xg + 1.0)])
    ew = 0.5 * wg
    tr = basis.values(epts)
    rx = tr @ (ew * 0.5)          # <1/2, eta> * n_x with n = (1, 0)
    cx_ref = np.linalg.solve(G, rx)
    cy_ref = np.zeros_like(cx_ref)
    assert np.abs(cx - cx_ref).max() < 1e-11
    assert np.abs(cy - cy_ref).max() < 1e-11


def test_defining_equation_random_dofs(rng):
    # recompute both sides of the defining relation with independent
    # higher-order rules on every cell, boundary cells included, for both
    # operators, on a triangular and a mixed-shape mesh
    for family, n in (("tri", 2), ("poly", 4)):
        disc = Discretization(MESH_FAMILIES[family](n), 2)
        for velocity in (True, False):
            _check_defining_equation(disc, velocity, rng)


def _check_defining_equation(disc, velocity, rng):
    # residual <= 1e-10 * scale for every monomial test function (they span
    # the target space, as its orthonormal basis does)
    mesh, k = disc.mesh, disc.k
    maps = disc.vel if velocity else disc.pre
    table = disc.velocity_dofs[:, 0] if velocity else disc.pressure_dofs
    fdim = table.shape[1]
    for cell in range(mesh.n_cells):
        ct = CellTables(disc, cell)
        tables = ct.tables
        W = ct.map(maps)
        cols = ct.columns(table)
        dim, j = W.shape[1], ct.j
        edges = _cell_edges(mesh, cell)
        ends = mesh.edge_cells[edges]
        nbrs = np.where(ends[:, 0] == cell, ends[:, 1], ends[:, 0])
        involved = list(dict.fromkeys(
            [cell] + [nb for nb in nbrs if nb >= 0]))
        basis_t = MonomialBasis(j, mesh.cells[cell].centroid,
                                mesh.cells[cell].diameter)
        rule = cell_quadrature(cell_vertices(mesh, cell), 2 * j + 6)
        tvals = basis_t.values(rule.points)[:dim]
        tgx, tgy = (g[:dim] for g in basis_t.gradients(rule.points))
        gvals = tables(rule.points, dim)
        for trial in range(4):
            dofs = np.zeros(disc.n_velocity_dofs + 1)
            dofs[table[involved]] = rng.uniform(-1, 1, (len(involved), fdim))
            cx, cy = W @ dofs[cols]
            own = dofs[table[cell]]
            fvals = own @ tables(rule.points, fdim)
            # volume: (grad_w v, tau) + (v, div tau)
            lhs_x = (tvals * rule.weights) @ (cx @ gvals)
            lhs_y = (tvals * rule.weights) @ (cy @ gvals)
            vol_x = (tgx * rule.weights) @ fvals
            vol_y = (tgy * rule.weights) @ fvals
            edge_x = np.zeros(dim)
            edge_y = np.zeros(dim)
            for e, nb in zip(edges, nbrs):
                nrm = normal_out_of(mesh, e, cell)
                er = _edge_rule(mesh, e, j + k + 6)
                ttr = basis_t.values(er.points)[:dim]
                otr = own @ tables(er.points, fdim)
                if nb < 0:
                    if velocity:
                        continue  # homogeneous average
                    avg = otr     # pressure: the cell's own trace
                else:
                    ntr = dofs[table[nb]] @ CellTables(disc, nb).tables(
                        er.points, fdim)
                    avg = 0.5 * (otr + ntr)
                edge_x += nrm[0] * (ttr @ (er.weights * avg))
                edge_y += nrm[1] * (ttr @ (er.weights * avg))
            scale = max(1.0, np.abs(lhs_x).max(), np.abs(lhs_y).max())
            assert np.abs(lhs_x + vol_x - edge_x).max() < 1e-10 * scale
            assert np.abs(lhs_y + vol_y - edge_y).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# reproduction identities
# ---------------------------------------------------------------------------

def _kernel_meshes(family):
    """Meshes on which the kernels read every kind of batch between them:
    at n = 3 gathers (tri) or slices (rect, poly), at n = 8 broadcasts as
    well, and with every interior vertex moved, one key per cell."""
    return [MESH_FAMILIES[family](3), MESH_FAMILIES[family](8),
            perturbed_mesh(family, 6, 7, 0.1)]


def _batch_kinds(batches):
    kinds = set()
    for keys, rows in batches:
        if not isinstance(keys, slice):
            kinds.add("gather")
        elif keys.stop - keys.start < rows.stop - rows.start:
            kinds.add("broadcast")
        else:
            kinds.add("slice")
    return kinds


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_kernel_meshes_read_every_batch_kind(family):
    kinds = set()
    for mesh in _kernel_meshes(family):
        disc = Discretization(mesh, 1)
        for cls in disc.classes:
            kinds |= _batch_kinds(cls.batches)
    assert kinds == {"broadcast", "slice", "gather"}


def _quads_by_hexagon():
    """Two quads and a hexagon in a row: the middle quad's interior edges
    have 4 and 5 points at k = 1, so both quads pad an interior edge."""
    v = [[0, 0], [0.4, 0], [0.6, 0], [1, 0], [1, 0.5], [1, 1], [0.8, 1],
         [0.6, 1], [0.4, 1], [0, 1]]
    return Mesh(np.array(v, dtype=float),
                [[0, 1, 8, 9], [1, 2, 7, 8], [2, 3, 4, 5, 6, 7]])


@pytest.mark.parametrize("mesh, k, padded", [
    (MESH_FAMILIES["poly"](16), 2, 24), (MESH_FAMILIES["poly"](64), 1, 80),
    (perturbed_mesh("rect", 6, 7, 0.1), 2, 0), (_quads_by_hexagon(), 1, 7)],
    ids=["poly16", "poly64", "perturbed-rect", "quads-by-hexagon"])
def test_half_edge_points_pair_up(mesh, k, padded):
    # each class's half-edge points, (cells, local edges, edge_q): an edge
    # of fewer points repeats its last one, at weight 0, and shares its twin
    disc = Discretization(mesh, k)
    pts, w, twin = disc.edge_points, disc.edge_weights, disc.edge_twin
    edge, owner = disc.edge_index, disc.edge_owner
    pad = np.zeros(len(w), dtype=bool)
    for cls in disc.classes:
        rows = np.arange(cls.edge_start, cls.edge_start
                         + cls.edges.size * cls.edge_q).reshape(-1, cls.edge_q)
        repeat = np.all(pts[rows[:, 1:]] == pts[rows[:, :-1]], axis=-1)
        pad[rows[:, 1:]] = np.logical_or.accumulate(repeat, axis=1)
        assert np.all(edge[rows] == cls.edges.reshape(-1, 1))
        # the weights of a half-edge sum to its edge's length
        length = mesh.edge_lengths[cls.edges.ravel()]
        assert np.all(np.abs(w[rows].sum(1) - length) <= 1e-14 * length)
    assert pad.sum() == padded
    assert np.all(w[pad] == 0.0) and np.all(w[~pad] > 0.0)
    inner = twin >= 0
    t = twin[inner]
    assert np.array_equal(pts[inner], pts[t])
    assert np.array_equal(edge[inner], edge[t])
    assert np.array_equal(np.sort([owner[inner], owner[t]], axis=0),
                          np.sort(mesh.edge_cells[edge[inner]].T, axis=0))
    # a twin is never padding, and twins of the other points pair up
    assert not pad[t].any()
    real = inner & ~pad
    assert np.array_equal(twin[twin[real]], np.flatnonzero(real))
    # boundary points lie on the bounding box
    assert np.all(mesh.edge_cells[edge[~inner], 1] < 0)
    lo, hi = mesh.vertices.min(0), mesh.vertices.max(0)
    assert np.all(np.any((pts[~inner] == lo) | (pts[~inner] == hi), axis=1))


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_moments_recover_cell_values_coefficients(family, k, rng):
    # orthonormal bases: the moments of a polynomial's values at the cell
    # points are its coefficients
    meshes = _kernel_meshes(family)
    for mesh in meshes:
        disc = Discretization(mesh, k)
        for d in (disc.dim_p, disc.dim_k):
            c = rng.standard_normal((disc.mesh.n_cells, 2, d))
            back = disc.cell_moments(disc.cell_values(c), d)
            assert np.abs(back - c).max() <= 1e-12
        # per-class coefficients in the degree-j target space: their
        # moments are each key's Gram matrix times them.  At n = 3 the Gram
        # matrices are the identity closely enough to recover them to
        # 1e-10; at n = 8 the degree-8 hexagon tables are orthonormal to
        # 4e-11 only, which a sum of 45 terms lifts to 1.2e-10
        c = [rng.standard_normal((len(cls.cells), 2, 2, cls.dim))
             for cls in disc.classes]
        for cls, back, ci in zip(disc.classes,
                                 disc.cell_moments(disc.cell_values(c)), c):
            gram = np.einsum("kaq,kbq,kq->kab", cls.phi, cls.phi,
                             cls.weights[cls.first])
            want = np.einsum("nab,nrsb->nrsa", gram[cls.key], ci)
            assert np.abs(back - want).max() <= 1e-12
            if mesh is meshes[0]:
                assert np.abs(back - ci).max() <= 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_transpose_is_adjoint(family, k, rng):
    # <apply(maps, x), t> = <x, apply_transpose(maps, t)>
    for mesh in _kernel_meshes(family):
        disc = Discretization(mesh, k)
        n = disc.mesh.n_cells
        for maps, shape in ((disc.vel, (n, 2, disc.dim_k)),
                            (disc.pre, (n, disc.dim_p)),
                            (disc.jump_maps(), (n, disc.dim_p))):
            x = rng.standard_normal(shape)
            y = disc.apply(maps, x)
            t = [rng.standard_normal(yi.shape) for yi in y]
            lhs = sum(float((yi * ti).sum()) for yi, ti in zip(y, t))
            rhs = float((x * disc.apply_transpose(maps, t)).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_edge_moments_are_weighted_transpose_of_edge_values(family, rng):
    for mesh in _kernel_meshes(family):
        disc = Discretization(mesh, 2)
        v = rng.standard_normal((len(disc.edge_points), 2))
        w = disc.edge_weights[:, None]
        c = rng.standard_normal((disc.mesh.n_cells, 2, disc.dim_k))
        assert float((w * disc.edge_values(c) * v).sum()) == pytest.approx(
            float((c * disc.edge_moments(v, disc.dim_k)).sum()), rel=1e-12)
        c = [rng.standard_normal((len(cls.cells), 2, cls.dim))
             for cls in disc.classes]
        assert float((w * disc.edge_values(c) * v).sum()) == pytest.approx(
            sum(float((a * b).sum())
                for a, b in zip(c, disc.edge_moments(v))), rel=1e-12)


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
def test_edge_values_match_point_evaluation(family, rng):
    # the owner's values at its half-edge points, read through the
    # half-edge tables, are its polynomial evaluated there, to roundoff of
    # the values' size (up to 200 on these meshes)
    for mesh in _kernel_meshes(family):
        disc = Discretization(mesh, 2)
        u = rng.standard_normal(disc.n_velocity_dofs)
        p = rng.standard_normal(disc.n_pressure_dofs)
        owner, pts = disc.edge_owner, disc.edge_points
        for got, want in (
                (disc.edge_values(u[disc.velocity_dofs]),
                 disc.velocity_values(u, owner, pts)),
                (disc.edge_values(p[disc.pressure_dofs]),
                 disc.pressure_values(p, owner, pts))):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_apply_matches_map_columns(rng):
    # each cell's map reads its coefficients, then its neighbours', with
    # zero in a boundary slot
    disc = Discretization(MESH_FAMILIES["poly"](3), 2)
    p = rng.standard_normal(disc.n_pressure_dofs)
    padded = np.append(p, 0.0)
    got = disc.apply(disc.pre, p[disc.pressure_dofs])
    for cell in range(disc.mesh.n_cells):
        ct = CellTables(disc, cell)
        want = ct.map(disc.pre) @ padded[ct.columns(disc.pressure_dofs)]
        assert np.abs(got[ct.ci][ct.slot] - want).max() <= 1e-14


def test_constant_field_zero_gradient():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    u = np.zeros(disc.n_velocity_dofs + 1)
    u[disc.velocity_dofs[:, 0]] = project_scalar_field(
        disc, lambda pts: np.ones(len(pts)), "k")
    for cell in range(mesh.n_cells):
        ct = CellTables(disc, cell)
        coef = ct.map(disc.vel) @ u[ct.columns(disc.velocity_dofs[:, 0])]
        # the homogeneous operator sees the boundary
        if (ct.cls.nbr[ct.slot] >= 0).all():
            assert np.abs(coef).max() < 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_reproduces_low_degree_polynomials(family, k, rng):
    # grad_w v = grad v exactly for global polynomials of degree <= k,
    # with the analytic gradient as oracle
    mesh = MESH_FAMILIES[family](3 if family != "poly" else 4)
    disc = Discretization(mesh, k)
    maps = disc._weak_gradient(disc.dim_k, None, "natural")
    for _ in range(3):
        fn, gr = random_polynomial(k, rng)
        u = np.zeros(disc.n_velocity_dofs + 1)
        u[disc.velocity_dofs[:, 0]] = project_scalar_field(disc, fn, "k")
        for cell in range(mesh.n_cells):
            ct = CellTables(disc, cell)
            cx, cy = ct.map(maps) @ u[ct.columns(disc.velocity_dofs[:, 0])]
            rule = cell_quadrature(cell_vertices(mesh, cell), 2 * ct.j + 2)
            gx, gy = (c @ ct.tables(rule.points, ct.dim) for c in (cx, cy))
            exact = gr(rule.points)
            assert np.abs(gx - exact[:, 0]).max() < 1e-10
            assert np.abs(gy - exact[:, 1]).max() < 1e-10


def weak_gradient_of_function(disc, cell, fn, extra_exactness=4):
    """Lifted gradient of an analytic scalar field on one cell.

    Assembles the defining relation directly from point values (the field's
    own trace serves as the edge average, as for any globally continuous
    function) and solves the target Gram system.
    """
    mesh = disc.mesh
    ct = CellTables(disc, cell)
    j, dim, tables = ct.j, ct.dim, ct.tables
    rule = cell_quadrature(cell_vertices(mesh, cell), 2 * j + 2)
    vals = tables(rule.points, dim)
    tgx, tgy = tables(rule.points, dim, grad=True)
    fv = fn(rule.points)
    rx = -(tgx * rule.weights) @ fv
    ry = -(tgy * rule.weights) @ fv
    for e in _cell_edges(mesh, cell):
        n = normal_out_of(mesh, e, cell)
        er = _edge_rule(mesh, e, 2 * j + extra_exactness)
        m = tables(er.points, dim) @ (er.weights * fn(er.points))
        rx += n[0] * m
        ry += n[1] * m
    chol = gram_cholesky((vals * rule.weights) @ vals.T)
    return gram_solve(chol, rx), gram_solve(chol, ry)


@pytest.mark.parametrize("family", ["tri", "rect"])
def test_gradient_equals_projected_gradient(family, rng):
    # for global fields of degree <= j+1 the weak gradient equals the
    # [P_j]^{2x2} projection of the exact gradient, coefficientwise
    k = 2
    mesh = MESH_FAMILIES[family](3)
    disc = Discretization(mesh, k)
    jmin = min(cls.j for cls in disc.classes)
    fn, gr = random_polynomial(jmin + 1, rng)

    def grad_tensor(pts):
        g = gr(pts)
        out = np.zeros((len(pts), 2, 2))
        out[:, 0, 0] = g[:, 0]
        out[:, 0, 1] = g[:, 1]
        return out

    proj = project_tensor(disc, grad_tensor)
    for cell in range(mesh.n_cells):
        cx, cy = weak_gradient_of_function(disc, cell, fn)
        assert np.abs(cx - proj[cell][0, 0]).max() < 1e-9
        assert np.abs(cy - proj[cell][0, 1]).max() < 1e-9


def test_pressure_gradient_identities(rng):
    mesh = generate_uniform_triangular(2)
    k = 2
    disc = Discretization(mesh, k)
    # constants vanish
    p = np.zeros(disc.n_pressure_dofs + 1)
    p[:-1] = project_scalar_field(disc, lambda pts: np.ones(len(pts)),
                                  "p").ravel()
    for cell in range(mesh.n_cells):
        ct = CellTables(disc, cell)
        assert np.abs(ct.map(disc.pre) @ p[ct.columns(disc.pressure_dofs)]
                      ).max() < 1e-11
    # degree <= k-1 reproduces the analytic gradient
    fn, gr = random_polynomial(k - 1, rng)
    p[:-1] = project_scalar_field(disc, fn, "p").ravel()
    for cell in range(mesh.n_cells):
        ct = CellTables(disc, cell)
        cx, cy = ct.map(disc.pre) @ p[ct.columns(disc.pressure_dofs)]
        rule = cell_quadrature(cell_vertices(mesh, cell), 2 * ct.j + 2)
        gx, gy = (c @ ct.tables(rule.points, disc.dim_k) for c in (cx, cy))
        exact = gr(rule.points)
        assert np.abs(gx - exact[:, 0]).max() < 1e-10
        assert np.abs(gy - exact[:, 1]).max() < 1e-10


def test_single_cell_x_gradient():
    # one unit cell, field x, target degree k = 1: the boundary pairing
    # <x, phi . n> makes the result exactly (1, 0)
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)
    ct = CellTables(disc, 0)
    W = ct.map(disc._weak_gradient(disc.dim_k, disc.dim_k, "natural"))
    rule = cell_quadrature(cell_vertices(mesh, 0), 2 * ct.j + 2)
    vals = ct.tables(rule.points, disc.dim_k)
    u = np.zeros(disc.n_velocity_dofs + 1)
    u[disc.velocity_dofs[0, 0]] = gram_solve(
        gram_cholesky((vals * rule.weights) @ vals.T),
        vals @ (rule.weights * rule.points[:, 0]))
    cx, cy = W @ u[ct.columns(disc.velocity_dofs[:, 0])]
    gx, gy = cx @ vals, cy @ vals
    assert np.abs(gx - 1.0).max() < 1e-12
    assert np.abs(gy).max() < 1e-12


def test_jump_seminorm_controlled_by_energy(rng):
    # monitored property: sum_e h^{-1} ||[v]||_e^2 / |||v|||^2 stays bounded
    # (no growth beyond 2x) across three refinement levels
    from cdgbrinkman.analysis import norm_triple_bar
    from cdgbrinkman.problems import polynomial_patch

    problem = polynomial_patch(1)  # provides mu and kappa for the norm
    ratios = []
    for n in (2, 4, 8):
        mesh = generate_uniform_triangular(n)
        disc = Discretization(mesh, 1)
        worst = 0.0
        for _ in range(50):
            u = rng.standard_normal(disc.n_velocity_dofs)
            num = 0.0
            for e in range(mesh.n_edges):
                rule = _edge_rule(mesh, e, 5)
                (minus, plus), n = mesh.edge_cells[e], mesh.edge_normals[e]
                vm = disc.velocity_values(u, minus, rule.points)
                if plus < 0:
                    jump = normal_jump(vm, None, n)
                else:
                    vp = disc.velocity_values(u, plus, rule.points)
                    jump = normal_jump(vm, vp, n)
                num += (rule.weights @ jump ** 2) / mesh.h
            den = norm_triple_bar(disc, problem, u) ** 2
            worst = max(worst, num / den)
        ratios.append(worst)
    assert max(ratios) <= 2.0 * min(ratios)
