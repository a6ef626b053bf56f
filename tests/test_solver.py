import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from cdgbrinkman.analysis import project_pressure
from cdgbrinkman.assembly import assemble_system
from cdgbrinkman.mesh import (generate_uniform_rectangular,
                              generate_uniform_triangular)
from cdgbrinkman.problems import example1
from cdgbrinkman import solver
from cdgbrinkman.cli import main
from cdgbrinkman.solver import SingularSystemError, SolverError, solve
from cdgbrinkman.weakgrad import Discretization
from conftest import MESH_FAMILIES, refinement_stopped_by_rule
from polyref import from_scipy, system_matrix, system_rhs, to_scipy


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
    M = system_matrix(sysr)
    x = np.concatenate([sol.u, sol.p, [sol.multiplier]])
    rhs = system_rhs(sysr)
    assert np.linalg.norm(M @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_solve_deterministic_bit_identical(small_setup):
    _, _, system = small_setup
    a = solve(system)
    b = solve(system)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)
    assert a.multiplier == b.multiplier


def test_singular_system_structured_error(small_setup):
    # a velocity DOF decoupled from everything (a zero row and column of A
    # and a zero row of B) leaves a zero column in K, which the velocity
    # block's Cholesky factor must flag and attribute to A; the error
    # carries the stats gathered up to the failure
    _, _, system = small_setup
    import copy

    broken = copy.copy(system)
    keep = sp.diags((np.arange(system.n_u) != 5).astype(float))
    broken.A = from_scipy(keep @ to_scipy(system.A) @ keep)
    broken.B = from_scipy(keep @ to_scipy(system.B))
    with pytest.raises(SingularSystemError,
                       match="zero pivot in the velocity block A") as err:
        solve(broken)
    stats = err.value.stats
    assert stats["ordering"] == "cell-nested-dissection"
    assert stats["regularization"] == solver.DELTA
    assert "nnz_factor" not in stats
    assert "refinement_residuals" not in stats
    # a pressure block that is not negative semidefinite breaks the pressure
    # block's Cholesky factor, which names it
    flipped = copy.copy(system)
    flipped.S = from_scipy(to_scipy(system.S) - sp.identity(system.n_p))
    with pytest.raises(SingularSystemError,
                       match="zero pivot in the pressure block"):
        solve(flipped)
    # a residual check that cannot pass reports the refinement history
    with pytest.raises(SingularSystemError, match="exceeds 1.0e-20") as err:
        solve(system, rtol=1e-20)
    stats = err.value.stats
    assert stats["nnz_factor"] > 0
    history = stats["refinement_residuals"]
    assert refinement_stopped_by_rule(history) and history[-1] > 1e-20
    assert len(stats["inner_iterations"]) == len(history) - 1


def test_unconstrained_nullspace_is_constant_pressure(small_setup):
    disc, _, system = small_setup
    M = system_matrix(system, constrained=False)
    ones = project_pressure(disc, lambda pts: np.ones(len(pts)))
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
    # the same Jacobi-equilibrated matrix, factored by SuperLU in general
    # mode with a COLAMD column ordering, stores about 1.7x the entries of
    # the multifrontal LDL^T factor L
    _, _, system = small_setup
    M = system_matrix(system)
    d = np.abs(M.diagonal())
    d[d == 0.0] = 1.0
    scale = sp.diags(1.0 / np.sqrt(d))
    general = spla.splu((scale @ M @ scale).tocsc(), permc_spec="COLAMD")
    sol = solve(system)
    assert sol.stats["nnz_factor"] <= 0.75 * general.nnz
    assert sol.stats["ordering"] == "cell-nested-dissection"
    assert sol.stats["regularization"] == solver.DELTA


def test_ldlt_stores_less_than_superlu_mmd():
    # at rect n=16, k=3 the LDL^T factor keeps fewer entries than SuperLU's
    # symmetric-mode minimum-degree factor of the scaled K with a shifted
    # pressure diagonal, with static pivots, so that the pattern alone sets
    # both counts (4.6 M against 5.4 M)
    disc = Discretization(generate_uniform_rectangular(16), 3)
    system = assemble_system(disc, example1(mu=1.0, a=1e4))
    K = system_matrix(system, constrained=False).tocsc()
    d = np.abs(K.diagonal())
    d[d == 0.0] = 1.0
    scale = sp.diags(1.0 / np.sqrt(d))
    shift = sp.diags(np.append(np.zeros(system.n_u),
                               np.full(system.n_p, -solver.DELTA)))
    lu = spla.splu((scale @ K @ scale + shift).tocsc().astype(np.float32),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    sol = solve(system)
    assert sol.stats["nnz_factor"] < lu.nnz


def test_refinement_residuals_recorded(small_setup):
    _, _, system = small_setup
    sol = solve(system)
    history = sol.stats["refinement_residuals"]
    assert refinement_stopped_by_rule(history)
    assert all(np.isfinite(history))
    assert history[-1] == sol.residual
    # where the float32 solve contracts the residual a hundredfold, each
    # iterate takes one GMRES step
    assert sol.stats["inner_iterations"] == [1] * (len(history) - 1)


def test_float32_factor_refines_to_float64_accuracy(small_setup):
    # refinement must run to the roundoff floor, not stop at rtol: the
    # reference is a float64 spsolve of the bordered system with one
    # float64 refinement step (spsolve alone is off by 1.1e-12 in p here)
    _, _, system = small_setup
    sol = solve(system)
    M, rhs = system_matrix(system).tocsc(), system_rhs(system)
    x = spla.spsolve(M, rhs)
    x += spla.spsolve(M, rhs - M @ x)
    u, p = x[:system.n_u], x[system.n_u:-1]
    assert np.linalg.norm(sol.u - u) <= 1e-12 * np.linalg.norm(u)
    assert np.linalg.norm(sol.p - p) <= 1e-12 * np.linalg.norm(p)


def _counting_factor():
    """A spy on ``solver._factor`` that counts its calls."""
    return mock.patch.object(solver, "_factor", side_effect=solver._factor)


def test_slow_float32_regime_refines_from_one_factor(monkeypatch):
    # a pressure shift of 1e-2 leaves a float32 solve that contracts the
    # residual less than a hundredfold, so sweeps take several GMRES steps;
    # they reach the roundoff floor from the one float32 factor (with the
    # shift of 1e-6, every sweep of a regime scan takes one step)
    monkeypatch.setattr(solver, "DELTA", 1e-2)
    disc = Discretization(generate_uniform_triangular(4), 3)
    system = assemble_system(disc, example1(mu=1e-3, a=1e4))
    with _counting_factor() as factor:
        sol = solve(system)
    assert factor.call_count == 1
    assert sol.residual <= 1e-14
    history = sol.stats["refinement_residuals"]
    assert refinement_stopped_by_rule(history)
    assert len(history) - 1 <= solver.MAX_SWEEPS
    assert max(sol.stats["inner_iterations"]) > 1


def test_pressure_shift_follows_the_coupling():
    # at mu = 1e-3, a = 1 and k = 3 the scaled columns of B have squared
    # norms near 25; a shift of DELTA alone left float32 factor entries of
    # 1e7 and took 23 to 31 GMRES steps per sweep here, the shift of
    # DELTA max(1, |B col|^2) takes at most three
    disc = Discretization(generate_uniform_triangular(4), 3)
    sol = solve(assemble_system(disc, example1(mu=1e-3, a=1.0)))
    assert sol.residual <= 1e-14
    assert max(sol.stats["inner_iterations"]) <= 3


@settings(max_examples=12, deadline=None)
@given(family=st.sampled_from(sorted(MESH_FAMILIES)),
       n=st.integers(3, 6), k=st.sampled_from([1, 2, 3]),
       mu=st.sampled_from([1e-3, 1e-2, 1.0]), a=st.sampled_from([1.0, 1e4]))
# the float32 pressure block once lost definiteness here (zero pivot)
@example(family="rect", n=3, k=3, mu=1e-3, a=1.0)
def test_one_factor_per_solve_across_regimes(family, n, k, mu, a):
    # from the Stokes to the Darcy end, one float32 factor and its
    # refinement reach the residual gate by the stopping rule, and a re-run
    # is bit-identical
    disc = Discretization(MESH_FAMILIES[family](n), k)
    system = assemble_system(disc, example1(mu=mu, a=a))
    with _counting_factor() as factor:
        sol = solve(system)
    assert factor.call_count == 1
    assert sol.residual <= 1e-9
    history = sol.stats["refinement_residuals"]
    assert refinement_stopped_by_rule(history)
    assert len(history) - 1 <= solver.MAX_SWEEPS
    again = solve(system)
    assert np.array_equal(sol.u, again.u) and np.array_equal(sol.p, again.p)
    assert sol.stats == again.stats


@pytest.mark.parametrize("family", sorted(MESH_FAMILIES))
@pytest.mark.parametrize("a", [1.0, 1e4])
def test_one_factor_at_the_regime_corner(family, a):
    # k = 3 at mu = 1e-3 gives the largest |W|^2 against the pressure
    # shift; every n of the property test's range, without its draws
    for n in range(3, 7):
        disc = Discretization(MESH_FAMILIES[family](n), 3)
        system = assemble_system(disc, example1(mu=1e-3, a=a))
        with _counting_factor() as factor:
            sol = solve(system)
        assert factor.call_count == 1
        assert sol.residual <= 1e-9


def test_pressure_block_definite_at_a_tenth_of_the_shift(monkeypatch):
    # G + W^T W is summed in float64, so the pivot block stays definite
    # with a tenth of the shift; summed in float32, both inputs hit a zero
    # pivot in the pressure block
    monkeypatch.setattr(solver, "DELTA", solver.DELTA / 10)
    for n in (3, 4):
        disc = Discretization(generate_uniform_rectangular(n), 3)
        sol = solve(assemble_system(disc, example1(mu=1e-3, a=1.0)))
        assert sol.residual <= 1e-9


def _nudged(S, rng, direction):
    """S made exactly symmetric from its upper triangle, with about half of
    its nonzero upper entries (and their mirrors) moved by one ulp toward
    ``direction``; ``direction=None`` moves none."""
    U = sp.triu(S, format="coo")
    data = U.data.copy()
    if direction is not None:
        sel = (rng.random(len(data)) < 0.5) & (data != 0.0)
        data[sel] = np.nextafter(data[sel], direction)
    U = sp.coo_matrix((data, (U.row, U.col)), shape=S.shape)
    return (U + sp.triu(U, k=1).T).tocsr()


def test_fill_ignores_one_ulp_perturbations(rng):
    # the symbolic phase reads the pattern alone, so roundoff in S cannot
    # move the fill (SuperLU with a pivot threshold of 0.01 moved it by 485
    # to 1871 entries under these perturbations)
    import copy

    disc = Discretization(generate_uniform_rectangular(16), 3)
    system = assemble_system(disc, example1(mu=1.0, a=1e4))
    fills = []
    for direction in (None, np.inf, -np.inf, np.inf):
        nudged = copy.copy(system)
        nudged.S = from_scipy(_nudged(to_scipy(system.S), rng, direction))
        sol = solve(nudged)
        assert sol.residual <= 1e-9
        fills.append(sol.stats["nnz_factor"])
    assert fills == [fills[0]] * len(fills)


@pytest.mark.parametrize("triangular", [False, True])
def test_constant_pressure_is_null_vector(triangular):
    mesh = (generate_uniform_triangular(4) if triangular
            else generate_uniform_rectangular(4))
    disc = Discretization(mesh, 3)
    system = assemble_system(disc, example1(mu=1.0, a=1.0))
    # in orthonormal bases the constant's coefficients are its moments, m
    c = project_pressure(disc, lambda x: np.ones(len(x)))
    assert np.array_equal(c, system.m)
    K = system_matrix(system, constrained=False)
    null = np.concatenate([np.zeros(system.n_u), c])
    assert (np.linalg.norm(K @ null)
            <= 1e-12 * abs(K).max() * np.linalg.norm(c))
    assert float(system.m @ c) == pytest.approx(1.0, rel=1e-12)


def test_incompatible_pressure_data_goes_to_multiplier(small_setup):
    # G + 1 has net flux; the closed-form multiplier m^T G / m^T m absorbs
    # it and the pressure keeps its zero mean
    _, _, system = small_setup
    import copy

    bad = copy.copy(system)
    bad.G = system.G + 1.0
    sol = solve(bad)
    m = system.m
    assert sol.residual <= 1e-9
    assert sol.multiplier == float(m @ bad.G) / float(m @ m)
    assert abs(sol.stats["pressure_mean"]) <= 1e-12
    assert abs(float(m @ sol.p)) <= 1e-12


def _out_of_memory(K, tree):
    raise MemoryError


def test_factor_out_of_memory_is_solver_error(small_setup, monkeypatch):
    # the message names the size of what did not fit, and the stats go
    # with it, as for a zero pivot
    _, _, system = small_setup
    monkeypatch.setattr(solver, "_factor", _out_of_memory)
    n_p = system.n_p
    stored = (system.A.nnz + 2 * system.B.nnz
              + (to_scipy(system.S) + sp.identity(n_p)).nnz)
    with pytest.raises(SolverError) as err:
        solve(system)
    assert str(err.value) == (f"out of memory factoring K ({system.n_u + n_p}"
                              f" DOFs, {stored} stored entries)")
    assert err.value.stats["ordering"] == "cell-nested-dissection"
    assert "nnz_factor" not in err.value.stats


def test_float32_out_of_memory_is_not_retried(small_setup, monkeypatch):
    # float64 would need twice the memory, so a float32 factor that does
    # not fit ends the solve at once
    _, _, system = small_setup
    dtypes = []

    def out_of_memory(K, tree):
        dtypes.append(K.dtype)
        raise MemoryError

    monkeypatch.setattr(solver, "_factor", out_of_memory)
    with pytest.raises(SolverError, match="out of memory") as err:
        solve(system)
    assert not isinstance(err.value, SingularSystemError)
    assert dtypes == [np.float32]


def test_cli_factor_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    # the system the CLI default assembles at rect n=2: mu = 0.01, a = 1
    system = assemble_system(
        Discretization(generate_uniform_rectangular(2), 1),
        example1(mu=0.01, a=1.0))
    n_p = system.n_p
    stored = (system.A.nnz + 2 * system.B.nnz
              + (to_scipy(system.S) + sp.identity(n_p)).nnz)
    monkeypatch.setattr(solver, "_factor", _out_of_memory)
    code = main(["solve", "--mesh", "rect", "--n", "2", "--out",
                 str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"numerical failure: out of memory factoring K "
        f"({system.n_u + n_p} DOFs, {stored} stored entries)\n")


def test_factor_too_large_fails_before_numeric_work(small_setup, monkeypatch):
    # the symbolic phase sizes the factor; when it cannot fit in the
    # available memory the solve stops before the numeric phase, naming the
    # DOFs, the factor's stored entries and the GB needed and available
    _, _, system = small_setup
    monkeypatch.setattr(solver, "_available_bytes", lambda: 1000)
    with _counting_factor() as factor, pytest.raises(SolverError) as err:
        solve(system)
    assert factor.call_count == 0
    assert not isinstance(err.value, SingularSystemError)
    n = system.n_u + system.n_p
    message = str(err.value)
    assert message.startswith(f"factoring K ({n} DOFs, ")
    assert "stored entries of L" in message
    assert message.endswith("but only 0.00 GB is available")
    assert "nnz_factor" not in err.value.stats
    # an unreadable availability skips the check
    monkeypatch.setattr(solver, "_available_bytes", lambda: None)
    assert solve(system).residual <= 1e-9


def test_cli_factor_too_large_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_available_bytes", lambda: 1000)
    code = main(["solve", "--mesh", "rect", "--n", "2", "--out",
                 str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: factoring K (")
    assert err.endswith("GB is available\n")
