"""One OpenBLAS thread across the package's entry points (``_blas``)."""

import dataclasses
import json

import numpy as np
import pytest

from cdgbrinkman import _blas, analysis, assembly, cli, solver, weakgrad
from cdgbrinkman.analysis import (error_equation_residual, norm_triple_bar,
                                  run_convergence)
from cdgbrinkman.assembly import assemble_system
from cdgbrinkman.mesh import generate_polygonal, generate_uniform_triangular
from cdgbrinkman.polyspace import ConditioningError
from cdgbrinkman.problems import example1
from cdgbrinkman.solver import solve
from cdgbrinkman.weakgrad import Discretization
from conftest import caller_threads


def _spy(seen, get, fn):
    """``fn``, recording the BLAS thread count at each call in ``seen``."""

    def run(*args, **kwargs):
        seen.append(get())
        return fn(*args, **kwargs)

    return run


@pytest.fixture(scope="module")
def tri_setup():
    disc = Discretization(generate_uniform_triangular(4), 1)
    problem = example1(mu=1.0, a=1.0)
    system = assemble_system(disc, problem)
    return disc, problem, system, solve(system)


def _discretization(setup, seen, get, monkeypatch):
    monkeypatch.setattr(weakgrad, "_keyed_classes",
                        _spy(seen, get, weakgrad._keyed_classes))
    Discretization(setup[0].mesh, 1)


def _assembly(setup, seen, get, monkeypatch):
    monkeypatch.setattr(assembly, "_velocity_block",
                        _spy(seen, get, assembly._velocity_block))
    assemble_system(*setup[:2])


def _norm(setup, seen, get, monkeypatch):
    monkeypatch.setattr(Discretization, "cell_values",
                        _spy(seen, get, Discretization.cell_values))
    disc, problem, _, sol = setup
    norm_triple_bar(disc, problem, sol.u)


def _oracle(setup, seen, get, monkeypatch):
    monkeypatch.setattr(analysis, "_sample", _spy(seen, get, analysis._sample))
    error_equation_residual(*setup)


def _convergence(setup, seen, get, monkeypatch):
    # the mesh factory runs in run_convergence's own scope, the norms after
    # the level's solve
    run_convergence(setup[1], _spy(seen, get, generate_uniform_triangular),
                    1, [2, 4], on_level=_spy(seen, get, lambda rep: None))


@pytest.mark.parametrize("call", [_discretization, _assembly, _norm, _oracle,
                                  _convergence])
def test_entry_points_run_on_one_blas_thread(tri_setup, blas, monkeypatch,
                                             call):
    get, put = blas
    caller_threads(put, 2)
    seen = []
    call(tri_setup, seen, get, monkeypatch)
    assert seen and set(seen) == {1}
    assert get() == 2


def _negative_kappa(problem):
    return dataclasses.replace(problem,
                               kappa_inv=lambda pts: -np.ones(len(pts)))


def test_blas_threads_restored_after_a_conditioning_error(tri_setup, blas,
                                                          monkeypatch):
    get, put = blas
    caller_threads(put, 2)

    def fail(gram, cells, degree):
        assert get() == 1
        raise ConditioningError("Gram matrix not SPD")

    monkeypatch.setattr(weakgrad, "_cholesky", fail)
    with pytest.raises(ConditioningError):
        Discretization(tri_setup[0].mesh, 1)
    assert get() == 2


@pytest.mark.parametrize("call", ["assemble_system", "run_convergence"])
def test_blas_threads_restored_after_a_rejected_kappa(tri_setup, blas, call):
    get, put = blas
    caller_threads(put, 2)
    disc, problem = tri_setup[:2]
    with pytest.raises(ValueError, match="nonpositive"):
        if call == "assemble_system":
            assemble_system(disc, _negative_kappa(problem))
        else:
            run_convergence(_negative_kappa(problem),
                            generate_uniform_triangular, 1, [2, 4])
    assert get() == 2


def test_cli_solve_over_the_gate_exports_on_one_thread(tmp_path, blas,
                                                       monkeypatch):
    # a factor over the gate runs at the caller's count inside cli.main,
    # and hands one thread back to the export after it
    get, put = blas
    caller_threads(put, 2)
    monkeypatch.setattr(solver, "_THREADED_FLOPS", 0)
    seen = []
    monkeypatch.setattr(solver, "_factor", _spy(seen, get, solver._factor))
    for name in ("cell_center_fields", "write_vtk", "write_lattice_csv",
                 "write_summary"):
        monkeypatch.setattr(cli, name, _spy(seen, get, getattr(cli, name)))
    assert cli.main(["solve", "--mesh", "rect", "--n", "4", "--resolution",
                     "4", "--out", str(tmp_path)]) == 0
    assert seen == [2, 1, 1, 1, 1]
    assert get() == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["solver"]["blas_threads"] == 2


def test_nested_scope_hands_back_one_thread(blas):
    # the count stays raised while any scope that raised it runs
    get, put = blas
    caller_threads(put, 2)
    with _blas.one_thread():
        assert get() == 1
        with _blas.one_thread() as callers:
            with _blas.one_thread() as inner:
                assert callers() == 2 and get() == 2
                assert inner() == 2
            assert get() == 2
        assert get() == 1
    assert get() == 2


def _pipeline():
    disc = Discretization(generate_polygonal(16), 2)
    problem = example1(mu=1.0, a=1.0)
    system = assemble_system(disc, problem)
    sol = solve(system)
    return system, sol, error_equation_residual(disc, problem, system, sol)


def test_pipeline_independent_of_callers_blas_threads(blas):
    # the oracle-poly-k2 bench input, built from scratch at each count:
    # below the gate no BLAS call sees the caller's count, so every bit of
    # the discretization, assembly, solve and oracle is the same
    get, put = blas
    runs = []
    for threads in (1, 2):
        caller_threads(put, threads)
        runs.append(_pipeline())
        assert get() == threads
    (sa, a, ra), (sb, b, rb) = runs
    assert a.stats["factor_flops"] < solver._THREADED_FLOPS
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sa.A, name), getattr(sb.A, name))
    assert np.array_equal(sa.F, sb.F)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)
    assert ra == rb
