import numpy as np
import pytest

from cdgbrinkman.mesh import Mesh, generate_uniform_rectangular, generate_uniform_triangular
from cdgbrinkman.polyspace import (MonomialBasis, cell_quadrature,
                                   edge_quadrature, gram_solve)
from cdgbrinkman.weakgrad import (Discretization, build_scalar_weak_gradient,
                                  edge_average, normal_jump, scalar_jump,
                                  target_degree)
from cdgbrinkman.analysis import project_tensor

from conftest import MESH_FAMILIES, project_scalar_field, random_polynomial


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


def test_continuous_field_has_zero_jumps(rng):
    # restriction of one global polynomial representable in the space:
    # [v] = 0 and [[q]] = 0 on interior edges
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    fn, _ = random_polynomial(1, rng)
    dofs = project_scalar_field(disc, fn, "p")
    for eid in mesh.interior_edge_ids:
        e = mesh.edges[eid]
        rule = disc.edge_rules[eid]
        cm, cp = e.cell_minus, e.cell_plus
        tm = disc.contexts[cm].block_p.trace(disc.contexts[cm].basis, rule.points)
        tp = disc.contexts[cp].block_p.trace(disc.contexts[cp].basis, rule.points)
        qm, qp = dofs[cm] @ tm, dofs[cp] @ tp
        assert np.abs(qm - qp).max() < 1e-11


def test_average_deviation_norm_identity(rng):
    # || v - {v} ||_e = 1/2 || [v] ||_e on interior edges and = || [v] ||_e
    # on boundary edges (homogeneous trace), checked on normal-directed
    # traces where the identity is exact
    mesh = generate_uniform_rectangular(2)
    disc = Discretization(mesh, 1)
    for e in mesh.edges:
        rule = disc.edge_rules[e.index]
        n = e.normal
        w = rule.weights
        t = np.linspace(0.0, 1.0, len(rule.points))
        vm = np.outer(1.0 + t, n)          # trace from the minus cell
        if e.is_boundary:
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
    p[disc.pressure_slice(1)][0] = 1.0  # constant one on the second cell
    eid = mesh.interior_edge_ids[0]
    e = mesh.edges[eid]
    rule = disc.edge_rules[eid]
    qm = disc.pressure_values(p, e.cell_minus, rule.points)
    qp = disc.pressure_values(p, e.cell_plus, rule.points)
    jump = scalar_jump(qm, qp, e.normal)
    norm_sq = rule.weights @ (jump ** 2).sum(axis=1)
    assert norm_sq == pytest.approx(e.length, abs=1e-14)


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
    op = disc.vel_grad[0]
    # DOFs: x-component is 1 on the right cell, everything else 0
    def dofs(c):
        d = np.zeros(disc.dim_k)
        if c == 1:
            d[0] = 1.0
        return d

    loc = op.gather(dofs)
    cx, cy = op.coefficients(loc)

    # brute force: dense Gram of the target basis on the left cell via
    # tensor Gauss, rhs only from the shared edge
    ctx = disc.contexts[0]
    basis = MonomialBasis(ctx.j, mesh.cells[0].centroid, mesh.cells[0].diameter)
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
    # operators, on a triangular and a mixed-shape mesh, with and without
    # orthonormalized bases
    for family, n in (("tri", 2), ("poly", 4)):
        mesh = MESH_FAMILIES[family](n)
        for orthonormalize in (False, True):
            disc = Discretization(mesh, 2, orthonormalize=orthonormalize)
            for velocity in (True, False):
                _check_defining_equation(disc, velocity, rng)


def _check_defining_equation(disc, velocity, rng):
    # residual <= 1e-10 * scale for every monomial test function (they span
    # the target space whether or not its basis is orthonormalized)
    mesh, k = disc.mesh, disc.k
    ops = disc.vel_grad if velocity else disc.pre_grad
    for cell in range(mesh.n_cells):
        ctx = disc.contexts[cell]
        op = ops[cell]
        tgt, fld = ("j", "k") if velocity else ("k", "p")
        dim = ctx.block(tgt).dim
        basis_t = ctx.basis
        rule = cell_quadrature(mesh.cell_vertices(cell), 2 * ctx.j + 6)
        tvals = basis_t.values(rule.points)[:dim]
        tgx, tgy = (g[:dim] for g in basis_t.gradients(rule.points))
        gvals = ctx.block(tgt).trace(basis_t, rule.points)
        for trial in range(4):
            local = rng.uniform(-1, 1, op.ncols)
            cx, cy = op.coefficients(local)
            own = local[op.col_of[cell]]
            fvals = own @ ctx.block(fld).trace(basis_t, rule.points)
            # volume: (grad_w v, tau) + (v, div tau)
            lhs_x = (tvals * rule.weights) @ (cx @ gvals)
            lhs_y = (tvals * rule.weights) @ (cy @ gvals)
            vol_x = (tgx * rule.weights) @ fvals
            vol_y = (tgy * rule.weights) @ fvals
            edge_x = np.zeros(dim)
            edge_y = np.zeros(dim)
            for eid, nb, nrm in zip(ctx.edge_ids, ctx.neighbors, ctx.normals):
                e = mesh.edges[eid]
                er = edge_quadrature(mesh.vertices[e.v0], mesh.vertices[e.v1],
                                     ctx.j + k + 6)
                ttr = basis_t.values(er.points)[:dim]
                otr = own @ ctx.block(fld).trace(basis_t, er.points)
                if nb is None:
                    if velocity:
                        continue  # homogeneous average
                    avg = otr     # pressure: the cell's own trace
                else:
                    nctx = disc.contexts[nb]
                    ntr = local[op.col_of[nb]] @ nctx.block(fld).trace(
                        nctx.basis, er.points)
                    avg = 0.5 * (otr + ntr)
                edge_x += nrm[0] * (ttr @ (er.weights * avg))
                edge_y += nrm[1] * (ttr @ (er.weights * avg))
            scale = max(1.0, np.abs(lhs_x).max(), np.abs(lhs_y).max())
            assert np.abs(lhs_x + vol_x - edge_x).max() < 1e-10 * scale
            assert np.abs(lhs_y + vol_y - edge_y).max() < 1e-10 * scale


# ---------------------------------------------------------------------------
# reproduction identities
# ---------------------------------------------------------------------------

def test_constant_field_zero_gradient():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    for cell in range(mesh.n_cells):
        ctx = disc.contexts[cell]
        if any(nb is None for nb in ctx.neighbors):
            continue  # homogeneous operator sees the boundary
        op = disc.vel_grad[cell]
        def const(c):
            d = np.zeros(disc.dim_k)
            d[0] = 1.0
            return d
        cx, cy = op.coefficients(op.gather(const))
        assert np.abs(cx).max() < 1e-10
        assert np.abs(cy).max() < 1e-10


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_reproduces_low_degree_polynomials(family, k, rng):
    # grad_w v = grad v exactly for global polynomials of degree <= k,
    # with the analytic gradient as oracle
    mesh = MESH_FAMILIES[family](3 if family != "poly" else 4)
    disc = Discretization(mesh, k)
    for _ in range(3):
        fn, gr = random_polynomial(k, rng)
        dofs = project_scalar_field(disc, fn, "k")
        for cell in range(mesh.n_cells):
            op = build_scalar_weak_gradient(disc, cell, k,
                                            disc.contexts[cell].j, "natural")
            cx, cy = op.coefficients(op.gather(lambda c: dofs[c]))
            ctx = disc.contexts[cell]
            gx = cx @ ctx.block_j.vals
            gy = cy @ ctx.block_j.vals
            exact = gr(ctx.rule.points)
            assert np.abs(gx - exact[:, 0]).max() < 1e-10
            assert np.abs(gy - exact[:, 1]).max() < 1e-10


def weak_gradient_of_function(disc, cell, fn, extra_exactness=4):
    """Lifted gradient of an analytic scalar field on one cell.

    Assembles the defining relation directly from point values (the field's
    own trace serves as the edge average, as for any globally continuous
    function) and solves the target Gram system.
    """
    mesh = disc.mesh
    ctx = disc.contexts[cell]
    rule = ctx.rule
    tgx = ctx.block_j.gx
    tgy = ctx.block_j.gy
    fv = fn(rule.points)
    rx = -(tgx * rule.weights) @ fv
    ry = -(tgy * rule.weights) @ fv
    for eid, n in zip(ctx.edge_ids, ctx.normals):
        e = mesh.edges[eid]
        er = edge_quadrature(mesh.vertices[e.v0], mesh.vertices[e.v1],
                             2 * ctx.j + extra_exactness)
        tr = ctx.block_j.trace(ctx.basis, er.points)
        m = tr @ (er.weights * fn(er.points))
        rx += n[0] * m
        ry += n[1] * m
    return gram_solve(ctx.block_j.chol, rx), gram_solve(ctx.block_j.chol, ry)


@pytest.mark.parametrize("family", ["tri", "rect"])
def test_gradient_equals_projected_gradient(family, rng):
    # for global fields of degree <= j+1 the weak gradient equals the
    # [P_j]^{2x2} projection of the exact gradient, coefficientwise
    k = 2
    mesh = MESH_FAMILIES[family](3)
    disc = Discretization(mesh, k)
    jmin = min(ctx.j for ctx in disc.contexts)
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
    for cell in range(mesh.n_cells):
        op = disc.pre_grad[cell]
        def const(c):
            d = np.zeros(disc.dim_p)
            d[0] = 1.0
            return d
        cx, cy = op.coefficients(op.gather(const))
        assert np.abs(cx).max() < 1e-11
        assert np.abs(cy).max() < 1e-11
    # degree <= k-1 reproduces the analytic gradient
    fn, gr = random_polynomial(k - 1, rng)
    dofs = project_scalar_field(disc, fn, "p")
    for cell in range(mesh.n_cells):
        op = disc.pre_grad[cell]
        cx, cy = op.coefficients(op.gather(lambda c: dofs[c]))
        ctx = disc.contexts[cell]
        gx = cx @ ctx.block_k.vals
        gy = cy @ ctx.block_k.vals
        exact = gr(ctx.rule.points)
        assert np.abs(gx - exact[:, 0]).max() < 1e-10
        assert np.abs(gy - exact[:, 1]).max() < 1e-10


def test_single_cell_x_gradient():
    # one unit cell, field x, target degree k = 1: the boundary pairing
    # <x, phi . n> makes the result exactly (1, 0)
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)
    op = build_scalar_weak_gradient(disc, 0, 1, 1, "natural")
    ctx = disc.contexts[0]
    rhs = ctx.block_k.vals @ (ctx.rule.weights * ctx.rule.points[:, 0])
    dofs = gram_solve(ctx.block_k.chol, rhs)
    cx, cy = op.coefficients(dofs)
    gx = cx @ ctx.block_k.vals
    gy = cy @ ctx.block_k.vals
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
            for e in mesh.edges:
                rule = disc.edge_rules[e.index]
                vm = disc.velocity_values(u, e.cell_minus, rule.points)
                if e.is_boundary:
                    jump = normal_jump(vm, None, e.normal)
                else:
                    vp = disc.velocity_values(u, e.cell_plus, rule.points)
                    jump = normal_jump(vm, vp, e.normal)
                num += (rule.weights @ jump ** 2) / mesh.h
            den = norm_triple_bar(disc, problem, u) ** 2
            worst = max(worst, num / den)
        ratios.append(worst)
    assert max(ratios) <= 2.0 * min(ratios)
