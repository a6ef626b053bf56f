import numpy as np
import pytest

from cdgbrinkman.mesh import Mesh, generate_uniform_rectangular, generate_uniform_triangular
from cdgbrinkman.weakgrad import Discretization, target_degree
from cdgbrinkman.analysis import project_tensor

from polyref import (MonomialBasis, cell_quadrature, edge_average,
                     edge_quadrature, gram_cholesky, gram_solve, normal_jump,
                     scalar_jump)
from conftest import (MESH_FAMILIES, locate, normal_out_of,
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
        for cls in disc.classes:
            gram = (cls.phi * cls.weights[:, None, :]) @ cls.phi.transpose(
                0, 2, 1)
            assert np.abs(gram - np.eye(cls.dim)).max() <= 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_moments_against_quadrature(family, k):
    # vx/vy come from the Gram factor; here (d_i phi_a, phi_b) is summed
    # from polyref's term-by-term derivatives on a rule of exactness 2j + 6
    disc = Discretization(MESH_FAMILIES[family](4), k)
    for cell in range(disc.mesh.n_cells):
        ci, slot, tables = locate(disc, cell)
        cls = disc.classes[ci]
        rule = cell_quadrature(disc.mesh.cell_vertices(cell), 2 * cls.j + 6)
        wphi = tables(rule.points, disc.dim_k) * rule.weights
        grads = tables(rule.points, cls.dim, grad=True)
        for vol, grad in zip((cls.vx, cls.vy), grads):
            ref = grad @ wphi.T
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(vol[slot] - ref).max() <= 1e-11 * scale


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
    ci, slot, _ = locate(disc, 0)
    cx, cy = disc.vel[ci][:, slot] @ u[disc.columns(
        disc.classes[ci], disc.velocity_dofs[:, 0])[slot]]
    # the same polynomials in raw monomial coefficients: phi = T monomials
    cx, cy = (disc.classes[ci].transform[slot].T @ c for c in (cx, cy))

    # brute force: dense Gram of the target basis on the left cell via
    # tensor Gauss, rhs only from the shared edge
    basis = MonomialBasis(disc.classes[ci].j, mesh.cells[0].centroid,
                          mesh.cells[0].diameter)
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
        ci, slot, tables = locate(disc, cell)
        W = maps[ci][:, slot]
        cols = disc.columns(disc.classes[ci], table)[slot]
        dim, j = W.shape[1], disc.classes[ci].j
        edges = _cell_edges(mesh, cell)
        ends = mesh.edge_cells[edges]
        nbrs = np.where(ends[:, 0] == cell, ends[:, 1], ends[:, 0])
        involved = list(dict.fromkeys(
            [cell] + [nb for nb in nbrs if nb >= 0]))
        basis_t = MonomialBasis(j, mesh.cells[cell].centroid,
                                mesh.cells[cell].diameter)
        rule = cell_quadrature(mesh.cell_vertices(cell), 2 * j + 6)
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
                    ntr = dofs[table[nb]] @ locate(disc, nb)[2](er.points,
                                                                fdim)
                    avg = 0.5 * (otr + ntr)
                edge_x += nrm[0] * (ttr @ (er.weights * avg))
                edge_y += nrm[1] * (ttr @ (er.weights * avg))
            scale = max(1.0, np.abs(lhs_x).max(), np.abs(lhs_y).max())
            assert np.abs(lhs_x + vol_x - edge_x).max() < 1e-10 * scale
            assert np.abs(lhs_y + vol_y - edge_y).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# reproduction identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_moments_recover_cell_values_coefficients(family, k, rng):
    # orthonormal bases: the moments of a polynomial's values at the cell
    # points are its coefficients
    disc = Discretization(MESH_FAMILIES[family](3), k)
    for d in (disc.dim_p, disc.dim_k):
        c = rng.standard_normal((disc.mesh.n_cells, 2, d))
        back = disc.cell_moments(disc.cell_values(c), d)
        assert np.abs(back - c).max() <= 1e-12
    # per-class coefficients in the degree-j target space, whose Gram
    # matrices are the identity to 1e-10 (test_cell_bases_orthonormal)
    c = [rng.standard_normal((len(cls.cells), 2, 2, cls.dim))
         for cls in disc.classes]
    for back, ci in zip(disc.cell_moments(disc.cell_values(c)), c):
        assert np.abs(back - ci).max() <= 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_transpose_is_adjoint(family, k, rng):
    # <apply(maps, x), t> = <x, apply_transpose(maps, t)>
    disc = Discretization(MESH_FAMILIES[family](3), k)
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
    disc = Discretization(MESH_FAMILIES[family](3), 2)
    v = rng.standard_normal((len(disc.edge_points), 2))
    w = disc.edge_weights[:, None]
    c = rng.standard_normal((disc.mesh.n_cells, 2, disc.dim_k))
    assert float((w * disc.edge_values(c) * v).sum()) == pytest.approx(
        float((c * disc.edge_moments(v, disc.dim_k)).sum()), rel=1e-12)
    c = [rng.standard_normal((len(cls.cells), 2, cls.dim))
         for cls in disc.classes]
    assert float((w * disc.edge_values(c) * v).sum()) == pytest.approx(
        sum(float((a * b).sum()) for a, b in zip(c, disc.edge_moments(v))),
        rel=1e-12)


def test_apply_matches_map_columns(rng):
    # each cell's map reads its coefficients, then its neighbours', with
    # zero in a boundary slot
    disc = Discretization(MESH_FAMILIES["poly"](3), 2)
    p = rng.standard_normal(disc.n_pressure_dofs)
    padded = np.append(p, 0.0)
    for cls, maps, got in zip(disc.classes, disc.pre,
                              disc.apply(disc.pre, p[disc.pressure_dofs])):
        want = maps @ padded[disc.columns(cls, disc.pressure_dofs)][..., None]
        assert np.abs(got - want[..., 0].transpose(1, 0, 2)).max() <= 1e-14


def test_constant_field_zero_gradient():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    u = np.zeros(disc.n_velocity_dofs + 1)
    u[disc.velocity_dofs[:, 0]] = project_scalar_field(
        disc, lambda pts: np.ones(len(pts)), "k")
    for cls, maps in zip(disc.classes, disc.vel):
        cols = disc.columns(cls, disc.velocity_dofs[:, 0])
        coef = np.einsum("dcti,ci->dct", maps, u[cols])
        # the homogeneous operator sees the boundary
        assert np.abs(coef[:, (cls.nbr >= 0).all(axis=1)]).max() < 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_reproduces_low_degree_polynomials(family, k, rng):
    # grad_w v = grad v exactly for global polynomials of degree <= k,
    # with the analytic gradient as oracle
    mesh = MESH_FAMILIES[family](3 if family != "poly" else 4)
    disc = Discretization(mesh, k)
    maps = disc.weak_gradient(disc.dim_k, None, "natural")
    for _ in range(3):
        fn, gr = random_polynomial(k, rng)
        u = np.zeros(disc.n_velocity_dofs + 1)
        u[disc.velocity_dofs[:, 0]] = project_scalar_field(disc, fn, "k")
        for cell in range(mesh.n_cells):
            ci, slot, tables = locate(disc, cell)
            cls = disc.classes[ci]
            cx, cy = maps[ci][:, slot] @ u[disc.columns(
                cls, disc.velocity_dofs[:, 0])[slot]]
            rule = cell_quadrature(mesh.cell_vertices(cell), 2 * cls.j + 2)
            gx, gy = (c @ tables(rule.points, cls.dim) for c in (cx, cy))
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
    ci, _, tables = locate(disc, cell)
    j, dim = disc.classes[ci].j, disc.classes[ci].dim
    rule = cell_quadrature(mesh.cell_vertices(cell), 2 * j + 2)
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
    for cls, maps in zip(disc.classes, disc.pre):
        cols = disc.columns(cls, disc.pressure_dofs)
        assert np.abs(np.einsum("dcti,ci->dct", maps, p[cols])).max() < 1e-11
    # degree <= k-1 reproduces the analytic gradient
    fn, gr = random_polynomial(k - 1, rng)
    p[:-1] = project_scalar_field(disc, fn, "p").ravel()
    for cell in range(mesh.n_cells):
        ci, slot, tables = locate(disc, cell)
        cls = disc.classes[ci]
        cx, cy = disc.pre[ci][:, slot] @ p[disc.columns(
            cls, disc.pressure_dofs)[slot]]
        rule = cell_quadrature(mesh.cell_vertices(cell), 2 * cls.j + 2)
        gx, gy = (c @ tables(rule.points, disc.dim_k) for c in (cx, cy))
        exact = gr(rule.points)
        assert np.abs(gx - exact[:, 0]).max() < 1e-10
        assert np.abs(gy - exact[:, 1]).max() < 1e-10


def test_single_cell_x_gradient():
    # one unit cell, field x, target degree k = 1: the boundary pairing
    # <x, phi . n> makes the result exactly (1, 0)
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)
    W = disc.weak_gradient(disc.dim_k, disc.dim_k, "natural")[0][:, 0]
    _, _, tables = locate(disc, 0)
    rule = cell_quadrature(mesh.cell_vertices(0), 2 * disc.classes[0].j + 2)
    vals = tables(rule.points, disc.dim_k)
    u = np.zeros(disc.n_velocity_dofs + 1)
    u[disc.velocity_dofs[0, 0]] = gram_solve(
        gram_cholesky((vals * rule.weights) @ vals.T),
        vals @ (rule.weights * rule.points[:, 0]))
    cx, cy = W @ u[disc.columns(disc.classes[0], disc.velocity_dofs[:, 0])[0]]
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
