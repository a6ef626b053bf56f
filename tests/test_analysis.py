import numpy as np
import pytest

from cdgbrinkman import weakgrad
from cdgbrinkman.analysis import (CSV_COLUMNS, ConvergenceReport, ErrorReport,
                                  error_equation_residual, norm_l2_pressure,
                                  norm_l2_velocity, norm_pressure_jump,
                                  norm_triple_bar, norm_triple_bar_1,
                                  project_pressure, project_velocity,
                                  run_convergence,
                                  velocity_error_l2)
from cdgbrinkman.assembly import assemble_a, assemble_system
from cdgbrinkman.mesh import generate_uniform_rectangular, generate_uniform_triangular
from cdgbrinkman.problems import example1, polynomial_patch
from cdgbrinkman.solver import solve
from cdgbrinkman.weakgrad import Discretization

from conftest import random_polynomial
from polyref import CellTables, cell_vertices, final_rate


def test_project_pressure_mean_value():
    # projection of x onto piecewise constants over the single unit cell
    mesh = generate_uniform_rectangular(1)
    disc = Discretization(mesh, 1)
    p = project_pressure(disc, lambda pts: pts[:, 0])
    assert p[0] == pytest.approx(0.5, abs=1e-14)


def test_project_velocity_reproduces_members(rng):
    mesh = generate_uniform_triangular(2)
    k = 2
    disc = Discretization(mesh, k)
    coeffs = rng.standard_normal(disc.n_velocity_dofs)

    def field(pts):
        raise AssertionError("unused")

    # evaluate the member cellwise and re-project: coefficients identical
    out = np.zeros_like(coeffs)
    from polyref import cell_quadrature, gram_cholesky, gram_solve

    for c in range(mesh.n_cells):
        ct = CellTables(disc, c)
        rule = cell_quadrature(cell_vertices(mesh, c), 2 * ct.j + 2)
        vals = disc.velocity_values(coeffs, c, rule.points)
        basis = ct.tables(rule.points, disc.dim_k)
        chol = gram_cholesky((basis * rule.weights) @ basis.T)
        for comp in (0, 1):
            rhs = basis @ (rule.weights * vals[:, comp])
            out[disc.velocity_dofs[c, comp]] = gram_solve(chol, rhs)
    assert np.abs(out - coeffs).max() < 1e-12


def test_projection_error_decays_at_order_k_plus_one():
    problem = example1()
    errs = []
    for n in (4, 8, 16):
        mesh = generate_uniform_triangular(n)
        disc = Discretization(mesh, 1)
        uQ = project_velocity(disc, problem.u)
        errs.append(velocity_error_l2(disc, uQ, problem.u))
    rate = np.log2(errs[1] / errs[2])
    assert rate == pytest.approx(2.0, abs=0.2)


def test_norms_zero_field():
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    problem = example1()
    zu = np.zeros(disc.n_velocity_dofs)
    zp = np.zeros(disc.n_pressure_dofs)
    assert norm_triple_bar(disc, problem, zu) == 0.0
    assert norm_l2_velocity(disc, zu) == 0.0
    assert norm_l2_pressure(disc, zp) == 0.0
    assert norm_pressure_jump(disc, zp) == 0.0
    assert norm_triple_bar_1(disc, problem, zp) == 0.0


def test_triple_bar_squared_equals_a_quadratic_form(rng):
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 1)
    problem = example1(mu=0.3, a=2.5)
    A = assemble_a(disc, problem)
    for _ in range(50):
        v = rng.standard_normal(disc.n_velocity_dofs)
        assert norm_triple_bar(disc, problem, v) ** 2 == pytest.approx(
            float(v @ (A @ v)), rel=1e-12)


def test_pressure_jump_norm_vanishes_for_continuous(rng):
    mesh = generate_uniform_triangular(2)
    disc = Discretization(mesh, 2)
    fn, _ = random_polynomial(1, rng)
    p = project_pressure(disc, fn)
    assert norm_pressure_jump(disc, p) < 1e-12


def test_error_equation_polynomial_exactness():
    # all projection defects vanish: residual at solver precision
    mesh = generate_uniform_triangular(3)
    k = 2
    disc = Discretization(mesh, k)
    problem = polynomial_patch(k)
    system = assemble_system(disc, problem)
    sol = solve(system)
    r = error_equation_residual(disc, problem, system, sol)
    assert r["res_momentum"] <= 1e-9 * r["scale"]
    assert r["res_mass"] <= 1e-9 * r["scale"]


@pytest.mark.parametrize("n", [4, 8])
def test_error_equation_benchmark(n):
    # elevated quadrature isolates scheme/assembly/solver defects from
    # integration error of the trigonometric data
    mesh = generate_uniform_triangular(n)
    disc = Discretization(mesh, 1, cell_exactness_bump=10,
                          edge_exactness_bump=10)
    problem = example1(mu=1.0, a=1.0)
    system = assemble_system(disc, problem)
    sol = solve(system)
    r = error_equation_residual(disc, problem, system, sol)
    assert r["res_momentum"] <= 1e-8 * r["scale"]
    assert r["res_mass"] <= 1e-8 * r["scale"]


def test_error_equation_sensitivity():
    # the oracle is not vacuous: a 1e-3 single-DOF perturbation moves the
    # residual by at least 1e-4
    mesh = generate_uniform_triangular(4)
    disc = Discretization(mesh, 1, cell_exactness_bump=10,
                          edge_exactness_bump=10)
    problem = example1(mu=1.0, a=1.0)
    system = assemble_system(disc, problem)
    sol = solve(system)
    base = error_equation_residual(disc, problem, system, sol)
    sol.u[5] += 1e-3
    bumped = error_equation_residual(disc, problem, system, sol)
    jump = max(bumped["res_momentum"] - base["res_momentum"],
               bumped["res_mass"] - base["res_mass"])
    assert jump >= 1e-4


def test_rates_pure_function_and_csv_schema(tmp_path):
    reports = [
        ErrorReport(h=0.25, trb_e=1.0, l2_e=0.1, l2_eps=0.2, h_eps=0.3,
                    dof_u=10, dof_p=5, seconds=1.0),
        ErrorReport(h=0.125, trb_e=0.5, l2_e=0.025, l2_eps=0.05, h_eps=0.15,
                    dof_u=40, dof_p=20, seconds=2.0),
    ]
    a = ConvergenceReport(reports=list(reports))
    b = ConvergenceReport(reports=list(reports))
    assert a.rates() == b.rates()
    assert final_rate(a, "trb_e") == pytest.approx(1.0)
    assert final_rate(a, "l2_e") == pytest.approx(2.0)
    a.to_csv(tmp_path / "rates.csv")
    lines = (tmp_path / "rates.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert "1/4" in a.table()


def test_run_convergence_builds_through_the_module_name(monkeypatch):
    # run_convergence reads weakgrad.Discretization at call time, so a
    # wrapper on that name (perfbench/op.py times set-up by one) sees every
    # level's build
    built = []

    class Counting(Discretization):
        def __init__(self, mesh, k):
            built.append(mesh.n_cells)
            super().__init__(mesh, k)

    monkeypatch.setattr(weakgrad, "Discretization", Counting)
    run_convergence(example1(), generate_uniform_rectangular, 1, [1, 2])
    assert built == [1, 4]


def test_theorem_rates_small_scale():
    # energy-norm and stabilizer-norm errors at order k, pressure energy
    # norm at order k-1 (k = 2 keeps the latter informative)
    problem = example1(mu=1.0, a=1.0)
    rep = run_convergence(problem, generate_uniform_rectangular, 2, [4, 8, 16])
    assert final_rate(rep, "trb_e") >= 2.0 - 0.5
    combo_prev = rep.reports[-2].trb_e + rep.reports[-2].h_eps
    combo_last = rep.reports[-1].trb_e + rep.reports[-1].h_eps
    assert np.log2(combo_prev / combo_last) >= 2.0 - 0.5
    trb1 = []
    for n in (8, 16):
        disc = Discretization(generate_uniform_rectangular(n), 2)
        sol = solve(assemble_system(disc, problem))
        eps = project_pressure(disc, problem.p) - sol.p
        trb1.append(norm_triple_bar_1(disc, problem, eps))
    assert np.log2(trb1[0] / trb1[1]) >= 1.0 - 0.5
    assert final_rate(rep, "l2_e") >= 3.0 - 0.5


def test_small_mu_keeps_the_orders():
    # at mu = 1e-6 the velocity error carries a pressure term that grows
    # like 1/mu (README "Accuracy"), yet every solve meets its residual
    # bound (solve raises otherwise) and the orders stay in criterion 2's
    # brackets
    rep = run_convergence(example1(mu=1e-6, a=1.0),
                          generate_uniform_triangular, 1, [4, 8, 16])
    assert 1.75 <= final_rate(rep, "l2_e") <= 2.25
    assert 1.0 <= final_rate(rep, "trb_e") <= 1.5
    assert 1.1 <= final_rate(rep, "l2_eps") <= 1.7
