import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cdgbrinkman.assembly import assemble_system
from cdgbrinkman.mesh import generate_uniform_triangular
from cdgbrinkman.problems import example1
from cdgbrinkman.solver import SingularSystemError, solve
from cdgbrinkman.weakgrad import Discretization


@pytest.fixture(scope="module")
def small_setup():
    mesh = generate_uniform_triangular(8)
    disc = Discretization(mesh, 1)
    problem = example1(mu=1.0, a=1.0)
    system = assemble_system(disc, problem)
    return disc, problem, system


def test_zero_rhs_zero_solution(small_setup):
    disc, _, system = small_setup
    import copy

    sysz = copy.copy(system)
    sysz.F = np.zeros_like(system.F)
    sysz.G = np.zeros_like(system.G)
    sol = solve(sysz)
    assert np.abs(sol.u).max() == 0.0
    assert np.abs(sol.p).max() == 0.0


def test_residual_definition_random_rhs(small_setup, rng):
    disc, _, system = small_setup
    import copy

    sysr = copy.copy(system)
    sysr.F = rng.standard_normal(system.n_u)
    sysr.G = rng.standard_normal(system.n_p)
    sol = solve(sysr)
    assert sol.residual <= 1e-9
    M = sysr.matrix()
    x = np.concatenate([sol.u, sol.p, [sol.multiplier]])
    rhs = sysr.rhs()
    assert np.linalg.norm(M @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_solve_deterministic_bit_identical(small_setup):
    _, _, system = small_setup
    a = solve(system)
    b = solve(system)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)
    assert a.multiplier == b.multiplier


def test_singular_system_structured_error(small_setup):
    # dropping the mean constraint leaves a constant-pressure null vector;
    # with mass data that violates net-flux compatibility the system has no
    # solution, which the factorization or residual check must flag; the
    # error carries the stats gathered up to the failure
    disc, _, system = small_setup
    M = system.matrix(constrained=False)

    class Unconstrained:
        n_u = system.n_u
        n_p = system.n_p
        A = system.A
        S = system.S
        m = system.m

        def matrix(self, constrained=True):
            return M

        def rhs(self, constrained=True):
            return np.concatenate([system.F, system.G + 1.0])

    with pytest.raises(SingularSystemError, match="pressure") as err:
        solve(Unconstrained())
    stats = err.value.stats
    assert stats["ordering"] == "MMD_AT_PLUS_A/symmetric"
    assert stats["pivot_threshold"] == 0.01
    history = stats["refinement_residuals"]
    assert len(history) == 3 and history[-1] > 1e-9


def test_unconstrained_nullspace_is_constant_pressure(small_setup):
    disc, _, system = small_setup
    M = system.matrix(constrained=False)
    ones = np.zeros(system.n_p)
    ones[disc.pressure_dofs[:, 0]] = 1.0
    null = np.concatenate([np.zeros(system.n_u), ones])
    assert np.abs(M @ null).max() < 1e-12


def test_desk_scale_solve_under_one_second(small_setup):
    _, _, system = small_setup
    t0 = time.perf_counter()
    sol = solve(system)
    elapsed = time.perf_counter() - t0
    assert sol.residual <= 1e-9
    assert elapsed < 1.0


def test_symmetric_mode_fill_below_colamd(small_setup):
    # the same Jacobi-equilibrated matrix, factored in general mode with a
    # COLAMD column ordering, has about 1.6x the fill of the symmetric mode
    _, _, system = small_setup
    M = system.matrix()
    d = np.abs(M.diagonal())
    d[d == 0.0] = 1.0
    scale = sp.diags(1.0 / np.sqrt(d))
    general = spla.splu((scale @ M @ scale).tocsc(), permc_spec="COLAMD")
    sol = solve(system)
    assert sol.stats["nnz_factor"] <= 0.75 * (general.L.nnz + general.U.nnz)
    assert sol.stats["ordering"] == "MMD_AT_PLUS_A/symmetric"
    assert sol.stats["pivot_threshold"] == 0.01


def test_refinement_residuals_recorded(small_setup):
    _, _, system = small_setup
    sol = solve(system)
    history = sol.stats["refinement_residuals"]
    assert len(history) == 3
    assert all(np.isfinite(history))
    assert history[-1] == sol.residual
