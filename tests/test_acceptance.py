"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every tolerance is asserted exactly as stated; runtime budgets are enforced
with wall-clock checks.  Lines are written to the real stdout so they stay
visible under pytest capture.
"""

import json
import sys
import time

import numpy as np
import pytest

from cdgbrinkman.analysis import (error_equation_residual, norm_l2_pressure,
                                  norm_l2_velocity, norm_triple_bar,
                                  project_pressure, project_tensor,
                                  project_velocity, run_convergence)
from cdgbrinkman.assembly import BrinkmanProblem, assemble_system
from cdgbrinkman.cli import main
from cdgbrinkman.mesh import (generate_polygonal, generate_uniform_rectangular,
                              generate_uniform_triangular)
from cdgbrinkman.problems import (cavity_problem, example1, load_kappa_raster,
                                  polynomial_patch, sample_raster_path)
from cdgbrinkman.solver import solve
from cdgbrinkman.weakgrad import Discretization

from polyref import cell_quadrature, edge_quadrature, gram_cholesky, gram_solve
from conftest import (MESH_FAMILIES, locate, normal_out_of,
                      random_polynomial, project_scalar_field)


def _report(line):
    print(line, file=sys.__stdout__, flush=True)


def _finish(num, label, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    _report(f"{status} criterion {num} ({label}): {detail} "
            f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"


def test_criterion_1_patch_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for family, factory in MESH_FAMILIES.items():
        for k in (1, 2, 3):
            for n in (4, 8):
                mesh = factory(n)
                disc = Discretization(mesh, k)
                problem = polynomial_patch(k, mu=1.0, kappa0=2.0)
                system = assemble_system(disc, problem)
                sol = solve(system)
                e = project_velocity(disc, problem.u) - sol.u
                eps = project_pressure(disc, problem.p) - sol.p
                worst = max(worst,
                            norm_triple_bar(disc, problem, e),
                            norm_l2_velocity(disc, e),
                            norm_l2_pressure(disc, eps))
    _finish(1, "patch-test exactness", worst <= 1e-9,
            f"max error norm {worst:.2e} (tol 1e-9)", t0, 30.0)


def test_criterion_2_table1_orders():
    t0 = time.perf_counter()
    rep = run_convergence(example1(mu=1.0, a=1.0),
                          generate_uniform_triangular, 1, [4, 8, 16, 32, 64])
    l2 = rep.final_rate("l2_e")
    trb = rep.final_rate("trb_e")
    eps = rep.final_rate("l2_eps")
    ok = (1.75 <= l2 <= 2.25) and (1.0 <= trb <= 1.5) and (1.1 <= eps <= 1.7)
    _finish(2, "triangular k=1 orders",
            ok, f"orders l2={l2:.3f} trb={trb:.3f} eps={eps:.3f}", t0, 120.0)


def test_criterion_3_table5_orders():
    t0 = time.perf_counter()
    rep = run_convergence(example1(mu=1.0, a=1e4),
                          generate_uniform_rectangular, 2, [4, 8, 16, 32])
    l2 = rep.final_rate("l2_e")
    trb = rep.final_rate("trb_e")
    ok = (2.6 <= l2 <= 3.3) and (1.9 <= trb <= 2.4)
    _finish(3, "rectangular k=2 orders",
            ok, f"orders l2={l2:.3f} trb={trb:.3f}", t0, 300.0)


def test_criterion_4_table6_orders():
    t0 = time.perf_counter()
    rep = run_convergence(example1(mu=1.0, a=1e4),
                          generate_uniform_rectangular, 3, [4, 8, 16, 32])
    l2 = rep.final_rate("l2_e")
    trb = rep.final_rate("trb_e")
    ok = (3.6 <= l2 <= 4.4) and (2.9 <= trb <= 3.5)
    _finish(4, "rectangular k=3 orders",
            ok, f"orders l2={l2:.3f} trb={trb:.3f}", t0, 600.0)


def test_criterion_5_high_contrast_stability():
    t0 = time.perf_counter()
    residuals = []

    def solver_watch(rep):
        pass

    problem = example1(mu=1.0, a=1e4)
    # run levels manually to record solve residuals
    errs = []
    for n in (4, 8, 16, 32, 64):
        mesh = generate_uniform_triangular(n)
        disc = Discretization(mesh, 1)
        system = assemble_system(disc, problem)
        sol = solve(system)
        residuals.append(sol.residual)
        e = project_velocity(disc, problem.u) - sol.u
        errs.append(norm_l2_velocity(disc, e))
    order = float(np.log2(errs[-2] / errs[-1]))
    ok = order >= 1.6 and max(residuals) <= 1e-9
    _finish(5, "high-contrast stability", ok,
            f"finest l2 order {order:.3f} (>=1.6), max residual "
            f"{max(residuals):.1e}", t0, 300.0)


def test_criterion_6_weak_gradient_identities(rng):
    t0 = time.perf_counter()
    worst_repro = 0.0
    worst_pressure = 0.0
    k = 2
    for family, factory in MESH_FAMILIES.items():
        mesh = factory(3 if family != "poly" else 4)
        disc = Discretization(mesh, k)
        nat = disc.weak_gradient(disc.dim_k, None, "natural")
        cells = [locate(disc, c) for c in range(mesh.n_cells)]
        rules = [cell_quadrature(mesh.cell_vertices(c),
                                 2 * disc.classes[ci].j + 2)
                 for c, (ci, _, _) in enumerate(cells)]
        u = np.zeros(disc.n_velocity_dofs + 1)
        p = np.zeros(disc.n_pressure_dofs + 1)
        for _ in range(25):
            fn, gr = random_polynomial(k, rng)
            u[disc.velocity_dofs[:, 0]] = project_scalar_field(disc, fn, "k")
            for (ci, slot, tables), rule in zip(cells, rules):
                cls = disc.classes[ci]
                cx, cy = nat[ci][:, slot] @ u[disc.columns(
                    cls, disc.velocity_dofs[:, 0])[slot]]
                gx, gy = (c @ tables(rule.points, cls.dim) for c in (cx, cy))
                exact = gr(rule.points)
                worst_repro = max(worst_repro,
                                  np.abs(gx - exact[:, 0]).max(),
                                  np.abs(gy - exact[:, 1]).max())
            qfn, qgr = random_polynomial(k - 1, rng)
            p[:-1] = project_scalar_field(disc, qfn, "p").ravel()
            for (ci, slot, tables), rule in zip(cells, rules):
                cx, cy = disc.pre[ci][:, slot] @ p[disc.columns(
                    disc.classes[ci], disc.pressure_dofs)[slot]]
                gx, gy = (c @ tables(rule.points, disc.dim_k)
                          for c in (cx, cy))
                exact = qgr(rule.points)
                worst_pressure = max(worst_pressure,
                                     np.abs(gx - exact[:, 0]).max(),
                                     np.abs(gy - exact[:, 1]).max())

    # projected-gradient identity for degree j+1 fields; the orthonormal
    # bases keep the coefficient comparison away from monomial Gram
    # conditioning on the high-degree targets
    worst_proj = 0.0
    for family, factory in MESH_FAMILIES.items():
        mesh = factory(3 if family != "poly" else 4)
        disc = Discretization(mesh, k)
        jmin = min(cls.j for cls in disc.classes)
        for _ in range(5):
            fn, gr = random_polynomial(jmin + 1, rng)

            def grad_tensor(pts):
                g = gr(pts)
                out = np.zeros((len(pts), 2, 2))
                out[:, 0, 0] = g[:, 0]
                out[:, 0, 1] = g[:, 1]
                return out

            proj = project_tensor(disc, grad_tensor)
            for c in range(mesh.n_cells):
                cx, cy = _weak_gradient_of_function(disc, c, fn)
                worst_proj = max(worst_proj,
                                 np.abs(cx - proj[c][0, 0]).max(),
                                 np.abs(cy - proj[c][0, 1]).max())
    ok = worst_repro <= 1e-10 and worst_proj <= 1e-9 and worst_pressure <= 1e-10
    _finish(6, "weak-gradient identities", ok,
            f"reproduction {worst_repro:.1e} (1e-10), projection "
            f"{worst_proj:.1e} (1e-9), pressure {worst_pressure:.1e} (1e-10)",
            t0, 300.0)


def _weak_gradient_of_function(disc, cell, fn):
    mesh = disc.mesh
    ci, _, tables = locate(disc, cell)
    j, dim = disc.classes[ci].j, disc.classes[ci].dim
    rule = cell_quadrature(mesh.cell_vertices(cell), 2 * j + 2)
    vals = tables(rule.points, dim)
    tgx, tgy = tables(rule.points, dim, grad=True)
    fv = fn(rule.points)
    rx = -(tgx * rule.weights) @ fv
    ry = -(tgy * rule.weights) @ fv
    for e in mesh.cell_edge_ids[mesh.cell_offsets[cell]:
                                mesh.cell_offsets[cell + 1]]:
        n = normal_out_of(mesh, e, cell)
        v0, v1 = mesh.edge_vertices[e]
        er = edge_quadrature(mesh.vertices[v0], mesh.vertices[v1], 2 * j + 4)
        m = tables(er.points, dim) @ (er.weights * fn(er.points))
        rx += n[0] * m
        ry += n[1] * m
    chol = gram_cholesky((vals * rule.weights) @ vals.T)
    return gram_solve(chol, rx), gram_solve(chol, ry)


def test_criterion_7_error_equation_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    problem = example1(mu=1.0, a=1.0)
    keep = None
    for n in (4, 8):
        mesh = generate_uniform_triangular(n)
        disc = Discretization(mesh, 1, cell_exactness_bump=10,
                              edge_exactness_bump=10)
        system = assemble_system(disc, problem)
        sol = solve(system)
        r = error_equation_residual(disc, problem, system, sol)
        worst = max(worst, r["res_momentum"] / r["scale"],
                    r["res_mass"] / r["scale"])
        keep = (disc, system, sol, r)
    disc, system, sol, base = keep
    sol.u[5] += 1e-3
    bumped = error_equation_residual(disc, problem, system, sol)
    jump = max(bumped["res_momentum"] - base["res_momentum"],
               bumped["res_mass"] - base["res_mass"])
    ok = worst <= 1e-8 and jump >= 1e-4
    _finish(7, "error-equation oracle", ok,
            f"relative residual {worst:.1e} (1e-8), sensitivity {jump:.1e} "
            f"(>=1e-4)", t0, 120.0)


def test_criterion_8_well_posedness():
    t0 = time.perf_counter()

    def zero(pts):
        return np.zeros((len(pts), 2))

    problem = BrinkmanProblem(mu=1.0,
                              kappa_inv=lambda p: np.ones(len(p)),
                              f=zero, g=zero)
    worst = 0.0
    for family, factory in MESH_FAMILIES.items():
        for k in (1, 2):
            mesh = factory(4)
            disc = Discretization(mesh, k)
            system = assemble_system(disc, problem)
            sol = solve(system)  # factorization + residual gate inside
            worst = max(worst, np.abs(sol.u).max(), np.abs(sol.p).max(),
                        abs(sol.multiplier))
    _finish(8, "well-posedness", worst <= 1e-10,
            f"zero-data solution magnitude {worst:.1e} (1e-10), all "
            f"factorizations pivot-clean", t0, 120.0)


def test_criterion_9_raster_flow(tmp_path):
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_u = 0.0
    for name in ("blocky", "vuggy", "fiber"):
        kappa = load_kappa_raster(sample_raster_path(name))
        assert kappa.vmax / kappa.vmin >= 1e4
        problem = cavity_problem(kappa, mu=0.01)
        mesh = generate_uniform_rectangular(64)
        disc = Discretization(mesh, 1)
        system = assemble_system(disc, problem)
        sol = solve(system)
        worst_res = max(worst_res, sol.residual)
        for c in range(0, mesh.n_cells, 7):
            vel = disc.velocity_values(sol.u, c,
                                       mesh.cells[c].centroid[None, :])
            worst_u = max(worst_u, float(np.abs(vel).max()))
    # file outputs and schema validation through the CLI on the vuggy field
    code = main(["solve", "--mesh", "rect", "--n", "64", "--k", "1",
                 "--mu", "0.01",
                 "--kappa-raster", str(sample_raster_path("vuggy")),
                 "--resolution", "32", "--out", str(tmp_path)])
    files_ok = code == 0
    vtk = (tmp_path / "solution.vtk").read_text().splitlines()
    files_ok &= vtk[0].startswith("# vtk DataFile")
    files_ok &= "CELL_DATA 4096" in vtk
    grid = (tmp_path / "solution_grid.csv").read_text().splitlines()
    files_ok &= grid[0] == "x,y,u1,u2,p"
    files_ok &= len(grid) == 1 + 32 * 32
    summary = json.loads((tmp_path / "summary.json").read_text())
    files_ok &= summary["residual"] <= 1e-9
    ok = worst_res <= 1e-9 and worst_u <= 10.0 and bool(files_ok)
    _finish(9, "raster through-flow", ok,
            f"residual {worst_res:.1e} (1e-9), max|u| {worst_u:.2f} (<=10), "
            f"outputs valid={bool(files_ok)}", t0, 120.0)
