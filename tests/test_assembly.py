import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from cdgbrinkman.assembly import (BrinkmanProblem, _Coo, assemble_a,
                                  assemble_b, assemble_mean_constraint,
                                  assemble_rhs, assemble_s, assemble_system)
from cdgbrinkman.analysis import (norm_l2_pressure, norm_l2_velocity,
                                  norm_pressure_jump, norm_triple_bar,
                                  project_pressure, project_velocity)
from cdgbrinkman.mesh import (Mesh, generate_polygonal,
                              generate_uniform_rectangular,
                              generate_uniform_triangular)
from cdgbrinkman.problems import constant_flow_problem, example1, polynomial_patch
from cdgbrinkman.solver import SolverError, solve
from cdgbrinkman.weakgrad import Discretization

from polyref import (CellTables, MonomialBasis, cell_quadrature,
                     cell_vertices, jump_stabilizer, symmetry_defect,
                     system_matrix, to_scipy, validate_kappa)
from conftest import MESH_FAMILIES, normal_out_of, perturbed_mesh


def unit_problem(mu=1.0, kappa0=1.0):
    def kappa_inv(pts):
        return np.full(len(pts), kappa0)

    def zero(pts):
        return np.zeros((len(pts), 2))

    return BrinkmanProblem(mu=mu, kappa_inv=kappa_inv, f=zero, g=zero)


TWO_CELLS = Mesh([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
                 [[0, 1, 4, 3], [1, 2, 5, 4]])


def _random_blocks(rng, shape, sizes, values, run=1):
    """Stacked blocks for ``_Coo.add``: (m, a) row and (m, b run) column
    indices, -1 among them, the columns in runs of ``run`` that start at a
    multiple of it, and (m, a, b run) values drawn from ``values``."""
    out = []
    for m, a, b in sizes:
        rows = rng.integers(-1, shape[0], (m, a))
        first = rng.integers(-1, shape[1] // run, (m, b, 1))
        cols = np.where(first >= 0, first * run + np.arange(run), -1)
        out.append((rows, cols.reshape(m, b * run),
                    rng.choice(values, (m, a, b * run))))
    return out


def _build(shape, blocks, run):
    acc = _Coo(shape, run)
    for rows, cols, vals in blocks:
        acc.add(rows, cols, vals)
    return acc.tocsr()


def _same(a, b):
    return (np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nrows=st.integers(1, 9), ncols=st.integers(1, 4),
       run=st.integers(1, 3),
       sizes=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4),
                                st.integers(1, 3)), max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csr_build_and_matvecs_match_scipy(nrows, ncols, run, sizes, seed):
    # few indices give many duplicates, empty rows and sums that cancel;
    # dyadic values sum exactly in any order, so the pattern and the values
    # must be scipy's; no blocks at all is the empty accumulator
    rng = np.random.default_rng(seed)
    shape = (nrows, ncols * run)
    blocks = _random_blocks(rng, shape, sizes, [-1.0, -0.5, 0.0, 0.25, 1.0],
                            run)
    M = _build(shape, blocks, run)
    rows, cols, vals = [], [], []
    for r, c, v in blocks:
        r, c = np.broadcast_arrays(r[:, :, None], c[:, None, :])
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])
    ref = sp.coo_matrix((np.concatenate([[]] + vals),
                         (np.concatenate([[]] + rows).astype(int),
                          np.concatenate([[]] + cols).astype(int))),
                        shape=shape).tocsr()
    ref.eliminate_zeros()
    assert M.shape == shape and M.nnz == ref.nnz
    assert np.array_equal(M.indptr, ref.indptr)
    assert np.array_equal(M.indices, ref.indices)
    assert np.array_equal(M.data, ref.data)
    x, y = rng.standard_normal(shape[1]), rng.standard_normal(nrows)
    assert np.allclose(M @ x, ref @ x, rtol=1e-14, atol=1e-14)
    assert np.allclose(M.T @ y, ref.T @ y, rtol=1e-14, atol=1e-14)
    # a rebuild, and a build that keys single entries, are bit-identical
    assert _same(_build(shape, blocks, run), M)
    assert _same(_build(shape, blocks, 1), M)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sizes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4),
                                st.integers(1, 2)), min_size=1, max_size=4),
       run=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_csr_sums_duplicates_in_append_order(sizes, run, seed):
    # values whose sums round: each stored value is the left-to-right sum of
    # its entries in append order, and exact zeros are dropped
    rng = np.random.default_rng(seed)
    shape = (3, 4)
    blocks = _random_blocks(rng, shape, sizes, [-0.1, 0.1, 1 / 3, -1 / 3, 0.7],
                            run)
    sums = {}
    for rows, cols, vals in blocks:
        for i, r in enumerate(rows):
            for a, row in enumerate(r):
                for b, col in enumerate(cols[i]):
                    if row >= 0 and col >= 0:
                        key = (int(row), int(col))
                        sums[key] = sums.get(key, 0.0) + float(vals[i, a, b])
    expect = sorted((k, v) for k, v in sums.items() if v != 0.0)
    M = _build(shape, blocks, run)
    got = [((int(r), int(c)), float(v))
           for r, c, v in zip(M.row_ids(), M.indices, M.data)]
    assert got == expect


def test_single_cell_a_is_spd_6x6():
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)
    A = assemble_a(disc, unit_problem())
    assert A.shape == (6, 6)
    w = np.linalg.eigvalsh(to_scipy(A).toarray())
    assert w.min() > 0


def test_two_cell_a_spd_dense_eigen_oracle():
    disc = Discretization(TWO_CELLS, 1)
    A = assemble_a(disc, unit_problem(kappa0=3.0))
    w = np.linalg.eigvalsh(to_scipy(A).toarray())
    assert w.min() > 0


def test_a_quadratic_form_matches_energy_norm(rng):
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    problem = example1(mu=0.7, a=2.0)
    A = assemble_a(disc, problem)
    for _ in range(10):
        v = rng.standard_normal(disc.n_velocity_dofs)
        quad = float(v @ (A @ v))
        nrm = norm_triple_bar(disc, problem, v) ** 2
        assert quad == pytest.approx(nrm, rel=1e-12)


def test_a_cauchy_schwarz_boundedness(rng):
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    problem = example1(mu=1.0, a=1.0)
    A = assemble_a(disc, problem)
    for _ in range(100):
        v = rng.standard_normal(disc.n_velocity_dofs)
        w = rng.standard_normal(disc.n_velocity_dofs)
        lhs = abs(float(v @ (A @ w)))
        rhs = norm_triple_bar(disc, problem, v) * norm_triple_bar(disc, problem, w)
        assert lhs <= rhs * (1.0 + 1e-10)


def test_b_annihilates_global_constant_pressure():
    mesh = generate_uniform_triangular(3)
    disc = Discretization(mesh, 1)
    B = assemble_b(disc)
    ones = project_pressure(disc, lambda pts: np.ones(len(pts)))
    assert np.abs(B @ ones).max() < 1e-12


def _sq_rule(x0, y0, s, n=8):
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (x + 1.0) * s
    ww = 0.5 * w * s
    X, Y = np.meshgrid(x0 + t, y0 + t, indexing="ij")
    W = np.outer(ww, ww)
    return np.column_stack([X.ravel(), Y.ravel()]), W.ravel()


def test_b_against_direct_quadrature_oracle(rng):
    # dense reimplementation of (v, grad_w~ q) per cell on a rectangular
    # mesh, using tensor Gauss on squares instead of the fan/Duffy path
    n = 2
    k = 1
    mesh = generate_uniform_rectangular(n)
    disc = Discretization(mesh, k)
    B = assemble_b(disc)
    s = 1.0 / n
    for _ in range(20):
        v = rng.standard_normal(disc.n_velocity_dofs)
        q = rng.standard_normal(disc.n_pressure_dofs)
        via_B = float(v @ (B @ q))
        direct = 0.0
        for c in range(mesh.n_cells):
            cell = mesh.cells[c]
            x0, y0 = cell_vertices(mesh, c)[0]
            pts, w = _sq_rule(x0, y0, s, n=6)
            tgt = MonomialBasis(k, cell.centroid, cell.diameter)
            vals = tgt.values(pts)
            G = (vals * w) @ vals.T
            gx, gy = tgt.gradients(pts)
            rx = -(gx * w) @ disc.pressure_values(q, c, pts)
            ry = -(gy * w) @ disc.pressure_values(q, c, pts)
            for e in mesh.cell_edge_ids[mesh.cell_offsets[c]:
                                        mesh.cell_offsets[c + 1]]:
                minus, plus = mesh.edge_cells[e]
                nb = plus if minus == c else minus
                nrm = normal_out_of(mesh, e, c)
                xg, wg = np.polynomial.legendre.leggauss(6)
                t = 0.5 * (xg + 1.0)
                p0, p1 = mesh.vertices[mesh.edge_vertices[e]]
                epts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
                ew = 0.5 * wg * mesh.edge_lengths[e]
                own = disc.pressure_values(q, c, epts)
                if nb < 0:
                    avg = own
                else:
                    avg = 0.5 * (own + disc.pressure_values(q, nb, epts))
                m = tgt.values(epts) @ (ew * avg)
                rx += nrm[0] * m
                ry += nrm[1] * m
            cx = np.linalg.solve(G, rx)
            cy = np.linalg.solve(G, ry)
            vel = disc.velocity_values(v, c, pts)
            direct += w @ (vel[:, 0] * (cx @ vals) + vel[:, 1] * (cy @ vals))
        assert via_B == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_one_cell_b_sanity():
    # single unit cell, v = (1, 0), pressure-style gradient of x is (1, 0),
    # so the pairing equals the cell area
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 2)  # pressure space P_1 holds q = x
    B = assemble_b(disc)
    v = np.zeros(disc.n_velocity_dofs)
    v[disc.velocity_dofs[0, 0, 0]] = 1.0
    q = project_pressure(disc, lambda pts: pts[:, 0])
    assert float(v @ (B @ q)) == pytest.approx(1.0, abs=1e-13)


def test_s_vanishes_for_continuous_pressure():
    mesh = generate_uniform_triangular(3)
    disc = Discretization(mesh, 1)
    S = assemble_s(disc)
    ones = project_pressure(disc, lambda pts: np.ones(len(pts)))
    assert abs(float(ones @ (S @ ones))) < 1e-14


def test_s_unit_jump_two_cells():
    # piecewise 0/1 pressure on two unit squares: s(q, q) = h * h_e with h
    # the global mesh size (the max diameter) and h_e = 1
    disc = Discretization(TWO_CELLS, 1)
    S = assemble_s(disc)
    q = project_pressure(disc, lambda pts: (pts[:, 0] > 1.0).astype(float))
    assert float(q @ (S @ q)) == pytest.approx(TWO_CELLS.h, abs=1e-14)


@pytest.mark.parametrize("family", list(MESH_FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_s_matches_pointwise_jump_sum(family, k, rng):
    disc = Discretization(MESH_FAMILIES[family](3), k)
    S = assemble_s(disc)

    def tables(cell, points, dim):
        return CellTables(disc, cell).tables(points, dim)

    ref = jump_stabilizer(disc, tables)
    assert np.abs(to_scipy(S).toarray() - ref).max() <= 1e-12 * np.abs(
        ref).max()
    # the jump maps are S's rows cell by cell
    p = rng.standard_normal(disc.n_pressure_dofs)
    rows = np.empty((disc.mesh.n_cells, disc.dim_p))
    for cls, row in zip(disc.classes, disc.apply(disc.jump_maps(),
                                                 p[disc.pressure_dofs])):
        rows[cls.cells] = row[:, 0]
    assert np.abs(rows.ravel() - S @ p).max() <= 1e-12 * np.abs(S @ p).max()


def test_s_semidefinite_and_boundary_flag():
    mesh = generate_uniform_rectangular(2)
    disc = Discretization(mesh, 1)
    S = assemble_s(disc)
    assert np.linalg.eigvalsh(to_scipy(S).toarray()).min() > -1e-13
    # a globally constant pressure has no interior jumps, and boundary
    # edges are not summed
    ones = project_pressure(disc, lambda pts: np.ones(len(pts)))
    assert abs(float(ones @ (S @ ones))) < 1e-14


@pytest.mark.parametrize("family", [generate_uniform_triangular,
                                    generate_uniform_rectangular,
                                    generate_polygonal],
                         ids=["tri", "rect", "poly"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocks_store_no_zeros(family, k):
    # vanishing basis moments on symmetric cells and cancelling duplicates
    # would otherwise be stored, as fill for the factor and matvec work
    disc = Discretization(family(4), k)
    system = assemble_system(disc, example1())
    for block in (system.A, system.B, system.S):
        assert block.nnz > 0
        assert not np.any(block.data == 0.0)


def test_projected_pressure_stabilizer_decays_at_order_k():
    # ||projected p||_h ~ h^k for the smooth benchmark pressure, which is
    # the measurable content of the s-consistency bound
    problem = example1()
    vals = []
    for n in (4, 8, 16):
        mesh = generate_uniform_triangular(n)
        disc = Discretization(mesh, 1)
        pQ = project_pressure(disc, problem.p)
        vals.append(norm_pressure_jump(disc, pQ))
    r1 = np.log2(vals[0] / vals[1])
    r2 = np.log2(vals[1] / vals[2])
    assert r2 >= 1.0 - 0.15


def test_rhs_zero_data_is_zero():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    F, G = assemble_rhs(disc, unit_problem())
    assert np.abs(F).max() == 0.0
    assert np.abs(G).max() == 0.0


def test_rhs_constant_force_moments():
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)

    def f(pts):
        out = np.zeros((len(pts), 2))
        out[:, 0] = 1.0
        return out

    problem = BrinkmanProblem(mu=1.0, kappa_inv=lambda p: np.ones(len(p)),
                              f=f, g=lambda p: np.zeros((len(p), 2)))
    F, _ = assemble_rhs(disc, problem)
    ct = CellTables(disc, 0)
    rule = cell_quadrature(cell_vertices(mesh, 0), 2 * ct.j + 2)
    moments = ct.tables(rule.points, disc.dim_k) @ rule.weights
    assert np.allclose(F[disc.velocity_dofs[0, 0]], moments, atol=1e-14)
    assert np.abs(F[disc.velocity_dofs[0, 1]]).max() == 0.0


def test_mean_constraint_vector_and_zero_mean():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    m = assemble_mean_constraint(disc)
    ones = project_pressure(disc, lambda pts: np.ones(len(pts)))
    assert float(m @ ones) == pytest.approx(1.0, abs=1e-13)
    system = assemble_system(disc, example1())
    sol = solve(system)
    assert abs(float(m @ sol.p)) < 1e-10


def test_constant_pressure_shift_filtered():
    # shifting the pressure-block rhs along the constraint vector moves the
    # multiplier, not the solution
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, example1())
    base = solve(system)
    system.G = system.G + 0.37 * system.m
    shifted = solve(system)
    assert np.abs(shifted.u - base.u).max() < 1e-9
    assert np.abs(shifted.p - base.p).max() < 1e-9
    assert shifted.multiplier == pytest.approx(base.multiplier + 0.37,
                                               abs=1e-9)


def test_unconstrained_system_is_singular():
    mesh = generate_uniform_rectangular(2)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, unit_problem())
    M = system_matrix(system, constrained=False).toarray()
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[-1] < 1e-12 * sv[0]
    Mc = system_matrix(system, constrained=True).toarray()
    svc = np.linalg.svd(Mc, compute_uv=False)
    assert svc[-1] > 1e-12 * svc[0]


def test_full_matrix_symmetric():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    system = assemble_system(disc, example1(mu=0.5, a=3.0))
    M = system_matrix(system)
    assert symmetry_defect(system) <= 1e-12 * np.abs(M.data).max()


def test_assembly_deterministic_bit_identical():
    mesh = generate_uniform_triangular(2)
    problem = example1()
    mats = []
    for _ in range(2):
        disc = Discretization(mesh, 1)
        system = assemble_system(disc, problem)
        mats.append(system)
    a, b = mats
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.B.data, b.B.data)
    assert np.array_equal(a.S.data, b.S.data)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.G, b.G)


def test_homogeneous_problem_zero_solution():
    mesh = generate_uniform_triangular(4)
    disc = Discretization(mesh, 1)
    system = assemble_system(disc, unit_problem())
    sol = solve(system)
    assert np.abs(sol.u).max() < 1e-10
    assert np.abs(sol.p).max() < 1e-10


def test_constant_flow_reproduced_exactly():
    # with f = mu kappa^{-1} (1, 0) and g = (1, 0) the exact solution is
    # the uniform flow with zero pressure
    mesh = generate_uniform_rectangular(4)
    disc = Discretization(mesh, 1)
    problem = constant_flow_problem(kappa0=5.0, mu=0.01)
    system = assemble_system(disc, problem)
    sol = solve(system)
    from cdgbrinkman.analysis import project_velocity
    uQ = project_velocity(disc, problem.u)
    assert np.abs(sol.u - uQ).max() < 1e-9
    assert np.abs(sol.p).max() < 1e-9


def test_kappa_validation_rejects_nonpositive():
    def bad(pts):
        return pts[:, 0] - 0.5  # negative on half the domain

    problem = BrinkmanProblem(mu=1.0, kappa_inv=bad,
                              f=lambda p: np.zeros((len(p), 2)),
                              g=lambda p: np.zeros((len(p), 2)))
    pts = np.array([[0.1, 0.5], [0.9, 0.5]])
    with pytest.raises(ValueError, match="nonpositive"):
        validate_kappa(problem, pts)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_kappa_validation_rejects_non_finite(value):
    problem = unit_problem(kappa0=value)
    pts = np.array([[0.1, 0.5], [0.9, 0.5]])
    with pytest.raises(ValueError, match=r"non-finite kappa_inv .* \[0\.1 0\.5\]"):
        validate_kappa(problem, pts)


@pytest.mark.parametrize("kappa0", [np.nan, np.inf, 0.0, -1.0])
def test_assembly_rejects_bad_kappa_naming_cell(kappa0):
    disc = Discretization(generate_uniform_rectangular(2), 1)
    with pytest.raises(ValueError, match="kappa_inv .*in cell 0 at point"):
        assemble_system(disc, unit_problem(kappa0=kappa0))


def test_assembly_rejects_tensor_kappa():
    # kappa^{-1} is a scalar field; (n, 2, 2) values name the shape expected
    def kappa_inv(pts):
        return np.broadcast_to(np.eye(2), (len(pts), 2, 2))

    zero = unit_problem()
    problem = BrinkmanProblem(mu=1.0, kappa_inv=kappa_inv, f=zero.f, g=zero.g)
    disc = Discretization(generate_uniform_rectangular(2), 1)
    n = len(disc.cell_points)
    with pytest.raises(ValueError, match=rf"shape \({n},\); got shape "
                       rf"\({n}, 2, 2\)"):
        assemble_system(disc, problem)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
def test_assembly_rejects_bad_mu(mu):
    disc = Discretization(generate_uniform_rectangular(2), 1)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        assemble_system(disc, unit_problem(mu=mu))


def test_assembly_rejects_non_finite_force_naming_cell():
    zero = unit_problem()
    problem = BrinkmanProblem(mu=1.0, kappa_inv=zero.kappa_inv,
                              f=lambda p: np.full((len(p), 2), np.nan),
                              g=zero.g)
    disc = Discretization(generate_uniform_rectangular(2), 1)
    with pytest.raises(ValueError,
                       match=r"non-finite body force f .*in cell 0 at point"):
        assemble_system(disc, problem)


def test_assembly_rejects_non_finite_boundary_data_naming_edge():
    # g is NaN on the right side x = 1 only; the error names the
    # lowest-numbered edge there and one of its points
    mesh = generate_uniform_rectangular(2)

    def g(pts):
        out = np.zeros((len(pts), 2))
        out[pts[:, 0] > 1.0 - 1e-12, 0] = np.nan
        return out

    zero = unit_problem()
    problem = BrinkmanProblem(mu=1.0, kappa_inv=zero.kappa_inv, f=zero.f, g=g)
    right = min(e for e in mesh.boundary_edge_ids
                if np.all(mesh.vertices[mesh.edge_vertices[e], 0] == 1.0))
    disc = Discretization(mesh, 1)
    match = rf"non-finite boundary data g .*on edge {right} at point \[1\. "
    with pytest.raises(ValueError, match=match):
        assemble_system(disc, problem)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(family=st.sampled_from(["rect", "poly"]), n=st.integers(2, 4),
       k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.floats(0.0, 0.1))
def test_assembly_invariants_on_perturbed_meshes(family, n, k, seed,
                                                 amplitude):
    # A is symmetric, the constant flow is reproduced, and two builds from
    # scratch agree bit for bit
    mesh = perturbed_mesh(family, n, seed, amplitude)
    problem = constant_flow_problem(kappa0=5.0, mu=0.01)
    discs = [Discretization(mesh, k) for _ in range(2)]
    a, b = (assemble_system(disc, problem) for disc in discs)
    for name in ("A", "B", "S"):
        ma, mb = getattr(a, name), getattr(b, name)
        assert np.array_equal(ma.indptr, mb.indptr)
        assert np.array_equal(ma.indices, mb.indices)
        assert np.array_equal(ma.data, mb.data)
    for name in ("F", "G", "m"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    A = to_scipy(a.A)
    assert abs(A - A.T).max() <= 1e-14 * abs(A).max()
    # A = I_2 (x) A_s: equal component blocks, no coupling between them
    x, y = (discs[0].velocity_dofs[:, comp].ravel() for comp in (0, 1))
    xx, yy = A[x][:, x], A[y][:, y]
    assert np.array_equal(xx.indptr, yy.indptr)
    assert np.array_equal(xx.indices, yy.indices)
    assert np.array_equal(xx.data, yy.data)
    assert A[x][:, y].nnz == 0 and A[y][:, x].nnz == 0
    disc = discs[0]
    sol = solve(a)
    assert norm_l2_velocity(disc, sol.u - project_velocity(disc, problem.u)) \
        <= 1e-12
    assert norm_l2_pressure(disc, sol.p) <= 1e-12


def _assert_patch_reproduced(mesh, k):
    # criterion 1: the degree-k patch solution to 1e-9 in all three norms
    disc = Discretization(mesh, k)
    problem = polynomial_patch(k, mu=1.0, kappa0=2.0)
    sol = solve(assemble_system(disc, problem))
    e = project_velocity(disc, problem.u) - sol.u
    eps = project_pressure(disc, problem.p) - sol.p
    assert norm_triple_bar(disc, problem, e) <= 1e-9
    assert norm_l2_velocity(disc, e) <= 1e-9
    assert norm_l2_pressure(disc, eps) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(family=st.sampled_from(["rect", "poly"]), n=st.integers(2, 4),
       k=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.floats(0.0, 0.1))
def test_patch_reproduced_on_perturbed_meshes(family, n, k, seed, amplitude):
    _assert_patch_reproduced(perturbed_mesh(family, n, seed, amplitude), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_reproduced_on_collinear_vertex_pentagon(k):
    # the left cell lists the vertex (1/2, 1/2) that its two neighbours
    # share, so it is a pentagon with three collinear vertices
    verts = 0.5 * np.array([[0, 0], [1, 0], [2, 0], [0, 2], [1, 2], [2, 2],
                            [1, 1], [2, 1]])
    mesh = Mesh(verts, [[0, 1, 6, 4, 3], [1, 2, 7, 6], [6, 7, 5, 4]])
    assert mesh.cells[0].edge_count == 5
    _assert_patch_reproduced(mesh, k)


def _hanging_node_mesh(m):
    """The 3 x 3 squares of the unit square with the centre one split
    m x m: each of its four side neighbours lists the m - 1 hanging nodes
    on its side, so it has m + 3 edges."""
    n = 3 * m
    lattice = {(i, j) for i in range(0, n + 1, m) for j in range(0, n + 1, m)}
    lattice |= {(i, j) for i in range(m, 2 * m + 1)
                for j in range(m, 2 * m + 1)}
    ids = {v: i for i, v in enumerate(sorted(lattice))}

    def loop(x, y, s):
        corners = [(x, y), (x + s, y), (x + s, y + s), (x, y + s)]
        out = []
        for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
            side = [(ax + t * (bx - ax) // s, ay + t * (by - ay) // s)
                    for t in range(s)]
            out += [ids[v] for v in side if v in ids]
        return out

    cells = [loop(i * m, j * m, m) for j in range(3) for i in range(3)
             if (i, j) != (1, 1)]
    cells += [loop(m + a, m + b, 1) for b in range(m) for a in range(m)]
    return Mesh(np.array(sorted(lattice), float) / n, cells)


@pytest.mark.parametrize("m", [2, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_reproduced_on_hanging_node_mesh(k, m):
    # target degrees up to 13 (11 edges at k = 3), Gram conditions up to
    # 2.4e19; measured: |||e||| <= 2.9e-11, ||e|| <= 4.2e-13 and
    # ||eps|| <= 5.1e-12
    mesh = _hanging_node_mesh(m)
    counts = mesh.cells.edge_count
    assert sorted(counts[counts != 4]) == [m + 3] * 4
    disc = Discretization(mesh, k)
    problem = polynomial_patch(k)
    sol = solve(assemble_system(disc, problem))
    e = project_velocity(disc, problem.u) - sol.u
    eps = project_pressure(disc, problem.p) - sol.p
    assert norm_triple_bar(disc, problem, e) <= 1e-10
    assert norm_l2_velocity(disc, e) <= 1e-11
    assert norm_l2_pressure(disc, eps) <= 1e-10
