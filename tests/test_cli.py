import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdgbrinkman
from cdgbrinkman import cli, export
from cdgbrinkman.analysis import CSV_COLUMNS
from cdgbrinkman.cli import main
from cdgbrinkman.export import CellLocator, write_lattice_csv, write_vtk
from cdgbrinkman.mesh import (generate_polygonal, generate_uniform_rectangular,
                              generate_uniform_triangular, save_mesh)
from cdgbrinkman.problems import sample_raster_path
from cdgbrinkman.solver import DELTA
from cdgbrinkman.weakgrad import Discretization
from conftest import (NOTCH_ON_CENTROID, notched_square,
                      refinement_stopped_by_rule)


def test_converge_writes_schema_csv(tmp_path):
    code = main(["converge", "--mesh", "tri", "--k", "1", "--mu", "1",
                 "--a", "1", "--levels", "4..8", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "converge_tri_k1.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.25


def test_converge_reproducible_error_columns(tmp_path):
    # identical configs give identical error digits (the seconds column is
    # wall time and excluded from the comparison)
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        code = main(["converge", "--mesh", "rect", "--k", "1",
                     "--levels", "2..4", "--out", str(d)])
        assert code == 0
        with open(d / "converge_rect_k1.csv") as fh:
            outs.append(list(csv.reader(fh)))
    tcol = CSV_COLUMNS.index("seconds")
    for ra, rb in zip(*outs):
        assert ra[:tcol] == rb[:tcol]


def test_converge_rejects_bad_levels(tmp_path, capsys):
    code = main(["converge", "--levels", "4..11", "--out", str(tmp_path)])
    assert code == 2
    assert "--levels" in capsys.readouterr().err


def test_solve_produces_three_valid_files(tmp_path):
    raster = str(sample_raster_path("blocky"))
    code = main(["solve", "--mesh", "rect", "--n", "16", "--k", "1",
                 "--mu", "0.01", "--kappa-raster", raster,
                 "--resolution", "16", "--out", str(tmp_path)])
    assert code == 0
    vtk = (tmp_path / "solution.vtk").read_text().splitlines()
    assert vtk[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in vtk
    assert any(line.startswith("CELL_DATA 256") for line in vtk)
    assert sum(1 for line in vtk if line.startswith("SCALARS")) == 3
    with open(tmp_path / "solution_grid.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "u1", "u2", "p"]
    assert len(rows) == 1 + 16 * 16
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["residual"] <= 1e-9
    assert summary["n_cells"] == 256
    solver = summary["solver"]
    assert solver["ordering"] == "cell-nested-dissection"
    assert solver["regularization"] == DELTA
    assert solver["nnz_factor"] > 0
    assert solver["fronts"] > 1
    assert 0 < solver["max_front"] <= summary["dof_velocity"] + summary[
        "dof_pressure"]
    assert solver["factor_flops"] > solver["nnz_factor"]
    assert refinement_stopped_by_rule(solver["refinement_residuals"])
    assert solver["refinement_residuals"][-1] == summary["residual"]
    assert (solver["inner_iterations"]
            == [1] * (len(solver["refinement_residuals"]) - 1))


def test_solve_missing_raster_exit_2(tmp_path, capsys):
    code = main(["solve", "--kappa-raster", "/nonexistent/k.csv",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--kappa-raster" in err


@pytest.fixture
def no_rect_mesh(monkeypatch):
    """Fail the run if the CLI builds a rect mesh."""
    def build(n):
        raise AssertionError(f"rect mesh n={n} built before the checks")

    monkeypatch.setitem(cli._FAMILIES, "rect", build)


@pytest.mark.parametrize("extra, flag", [
    (["--kappa-raster", "/nonexistent/k.csv"], "--kappa-raster"),
    (["--a", "inf"], "--a"),
    (["--resolution", "0"], "--resolution"),
    (["--resolution", "-3"], "--resolution"),
], ids=["raster-missing", "a-inf", "resolution-zero", "resolution-negative"])
def test_solve_checks_config_before_mesh_exit_2(tmp_path, capsys,
                                                no_rect_mesh, extra, flag):
    code = main(["solve", "--mesh", "rect", "--out", str(tmp_path)] + extra)
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--n", "0"], "--n must be >= 1 for --mesh rect, got 0"),
    (["solve", "--mesh", "poly", "--n", "1"],
     "--n must be >= 2 for --mesh poly, got 1"),
    (["converge", "--mesh", "poly", "--levels", "1..2"],
     "--levels must be >= 2 for --mesh poly, got 1"),
], ids=["solve-rect-n0", "solve-poly-n1", "converge-poly-levels-1"])
def test_too_few_divisions_exit_2(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_solve_non_finite_mesh_file_vertex_exit_2(tmp_path, capsys):
    mpath = tmp_path / "inf.txt"
    mpath.write_text("cdgmesh 1 2d\nvertices 4\n0 0\n1 0\ninf 1\n0 1\n"
                     "cells 1\n0 1 2 3\n")
    code = main(["solve", "--mesh", f"file:{mpath}", "--out", str(tmp_path)])
    assert code == 2
    assert "inf.txt:5: vertex 2 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0", "nan"])
def test_solve_bad_raster_entry_exit_2(tmp_path, capsys, entry):
    raster = tmp_path / "k.csv"
    raster.write_text(f"2 2\n1 {entry}\n3 4\n")
    code = main(["solve", "--mesh", "rect", "--n", "2", "--kappa-raster",
                 str(raster), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--kappa-raster" in err and "row 0, col 1" in err


@pytest.mark.parametrize("text, message", [
    ("P2\n", "PGM header lacks its width field"),
    ("P2\n# kappa-inv-map 1\n2 2\n3\n0 1\n2 3\n",
     "'# kappa-inv-map lo hi' lacks its hi bound"),
], ids=["magic-only", "one-map-bound"])
def test_solve_truncated_pgm_exit_2(tmp_path, capsys, no_rect_mesh, text,
                                    message):
    raster = tmp_path / "k.pgm"
    raster.write_text(text)
    code = main(["solve", "--mesh", "rect", "--kappa-raster", str(raster),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{raster}: {message}" in err


def test_solve_negative_mu_exit_2(tmp_path, capsys):
    code = main(["solve", "--mesh", "rect", "--n", "2", "--mu", "-1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--mu" in capsys.readouterr().err


def test_solve_from_mesh_file(tmp_path):
    mesh = generate_uniform_triangular(4)
    mpath = tmp_path / "m.txt"
    save_mesh(mesh, mpath)
    code = main(["solve", "--mesh", f"file:{mpath}", "--k", "1",
                 "--mu", "1", "--a", "1", "--resolution", "8",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "solution.vtk").exists()


def test_solve_hanging_node_mesh_file_exit_2(tmp_path, capsys):
    mpath = tmp_path / "hanging.txt"
    mpath.write_text("cdgmesh 1 2d\nvertices 8\n0 0\n1 0\n2 0\n0 2\n1 2\n"
                     "2 2\n1 1\n2 1\ncells 3\n0 1 4 3\n1 2 7 6\n6 7 5 4\n")
    code = main(["solve", "--mesh", f"file:{mpath}", "--out", str(tmp_path)])
    assert code == 2
    assert "boundary edge 1" in capsys.readouterr().err


@pytest.mark.parametrize("x", [0.3, NOTCH_ON_CENTROID],
                         ids=["centroid-outside", "centroid-on-edge-line"])
def test_solve_cell_not_star_shaped_mesh_file_exit_2(tmp_path, capsys, x):
    # the cell quadrature fans each cell from its centroid; these meshes
    # used to fail in the solve (residual 9.2e-2) or with a traceback
    verts, loops = notched_square(x)
    mpath = tmp_path / "notched.txt"
    mpath.write_text("cdgmesh 1 2d\nvertices 8\n"
                     + "".join(f"{vx!r} {vy!r}\n" for vx, vy in verts)
                     + "cells 2\n"
                     + "".join(" ".join(map(str, c)) + "\n" for c in loops))
    code = main(["solve", "--mesh", f"file:{mpath}", "--k", "1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert ("cell 0 is not star-shaped about its centroid"
            in capsys.readouterr().err)


def test_solve_solver_flag_removed_exit_2(tmp_path, capsys):
    # the direct solve is the only solve; argparse rejects the old flag
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--solver", "direct", "--n", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--solver" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--stabilizer-edges", "all", "--n", "8"], "--stabilizer-edges"),
    (["converge", "--s-weight", "edge-h", "--levels", "2..2"], "--s-weight"),
    (["patchtest", "--all"], "--all"),
    (["patchtest", "--k", "2"], "--k"),
    (["converge", "--orthonormalize", "--levels", "2..2"], "--orthonormalize"),
    (["solve", "--orthonormalize", "--n", "2"], "--orthonormalize"),
    (["patchtest", "--orthonormalize"], "--orthonormalize"),
], ids=["solve-stabilizer-edges", "converge-s-weight", "patchtest-all",
        "patchtest-k", "converge-orthonormalize", "solve-orthonormalize",
        "patchtest-orthonormalize"])
def test_removed_flags_exit_2(tmp_path, capsys, monkeypatch, argv, flag):
    # S sums interior edges with the global h, patchtest runs every degree
    # and the cell bases are always orthonormal; argparse rejects the flags
    # that chose otherwise
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_patchtest_passes_every_case(capsys):
    assert main(["patchtest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # three families, k = 1..3, n = 4 and 8
    assert len(lines) == 18
    assert all(line.startswith("PASS ") for line in lines)


def test_readme_lists_exactly_the_cli_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {opt for parser in sub.choices.values()
                  for action in parser._actions
                  for opt in action.option_strings} - {"-h", "--help"}
    assert not registered - documented, "flags missing from README"
    assert not documented - registered, "README lists flags the CLI lacks"


def test_readme_lists_exactly_the_summary_solver_keys(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if "under `solver`" in p)
    section = paragraph.split("under `solver`", 1)[1]
    documented = set(re.findall(r"`([a-z_]+)`", section))
    assert main(["solve", "--mesh", "rect", "--n", "2", "--resolution", "2",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert documented == set(summary["solver"])


def test_cli_import_leaves_dense_scipy_modules_unloaded(tmp_path):
    # the package needs numpy alone: neither the CLI import nor a CLI or a
    # library solve loads any scipy module, whose import time every run
    # would pay
    src = str(Path(cdgbrinkman.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, cdgbrinkman as cb, cdgbrinkman.cli\n"
        "assert cdgbrinkman.cli.main(['solve', '--mesh', 'rect', '--n', '2',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "disc = cb.Discretization(cb.generate_uniform_triangular(2), 1)\n"
        "cb.solve(cb.assemble_system(disc, cb.example1()))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_patchtest_rejects_bad_tol_exit_2(capsys):
    for tol in ("nan", "-1", "0"):
        assert main(["patchtest", "--tol", tol]) == 2
        assert "--tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, message", [
    ("k.csv", "0 0\n", "raster grid is empty (0 rows, 0 cols)"),
    ("k.csv", "3 3\n1 2 3\n4 5 6\n", "k.csv: expected 9 values, found 6"),
    ("k.pgm", "P2\n2 2\n0\n0 0\n0 0\n",
     "k.pgm: PGM maxval must be positive, got 0"),
    ("k.pgm", "P2\n2 2\n3\n0 1\n", "k.pgm: expected 4 gray values, found 2"),
], ids=["csv-empty", "csv-short", "pgm-maxval-0", "pgm-short"])
# a warning would reach stderr outside pytest, which records it instead
@pytest.mark.filterwarnings("error")
def test_solve_malformed_raster_exit_2(tmp_path, capsys, no_rect_mesh, name,
                                       text, message):
    raster = tmp_path / name
    raster.write_text(text)
    code = main(["solve", "--mesh", "rect", "--kappa-raster", str(raster),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    # the error line alone: no warning from the loader goes to stderr
    assert err.count("\n") == 1
    assert "--kappa-raster" in err and message in err


def test_unknown_mesh_family_exit_2(tmp_path, capsys):
    code = main(["solve", "--mesh", "hexagonal", "--out", str(tmp_path)])
    assert code == 2
    assert "--mesh" in capsys.readouterr().err


def test_cell_locator_polygonal():
    mesh = generate_polygonal(4)
    loc = CellLocator(mesh)
    rng = np.random.default_rng(3)
    for p in rng.random((200, 2)):
        c = loc.locate(p)
        assert c is not None
        # verify containment with the mesh's own geometry
        pts = mesh.cell_vertices(c)
        nxt = np.roll(pts, -1, axis=0)
        cross = ((nxt[:, 0] - pts[:, 0]) * (p[1] - pts[:, 1])
                 - (nxt[:, 1] - pts[:, 1]) * (p[0] - pts[:, 0]))
        assert cross.min() > -1e-9


class LoopLocator(CellLocator):
    """CellLocator with its bucket table refilled by a loop over cells."""

    def __init__(self, mesh):
        super().__init__(mesh)
        buckets = [[] for _ in range(self.nb * self.nb)]
        for c in range(mesh.n_cells):
            pts = mesh.cell_vertices(c)
            i0, j0 = self._bucket_of(pts.min(axis=0))
            i1, j1 = self._bucket_of(pts.max(axis=0))
            for j in range(j0, j1 + 1):
                for i in range(i0, i1 + 1):
                    buckets[j * self.nb + i].append(c)
        self.table = np.full((len(buckets), max(map(len, buckets))), -1)
        for b, cells in enumerate(buckets):
            self.table[b, :len(cells)] = cells


@pytest.mark.parametrize("factory, n", [(generate_uniform_rectangular, 8),
                                        (generate_polygonal, 4),
                                        (generate_uniform_rectangular, 1),
                                        (generate_uniform_rectangular, 3)])
def test_lattice_csv_matches_loop_filled_locator(tmp_path, monkeypatch,
                                                  factory, n):
    # the bucket table is filled by a stable sort; candidates must keep
    # ascending cell order within a bucket, so ties on shared edges resolve
    # as the per-cell loop resolved them and the CSV is byte-identical.
    # rect n=1 and n=3 give one and three buckets per axis
    mesh = factory(n)
    assert np.array_equal(CellLocator(mesh).table, LoopLocator(mesh).table)
    disc = Discretization(mesh, 1)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(disc.n_velocity_dofs)
    p = rng.standard_normal(disc.n_pressure_dofs)
    write_lattice_csv(tmp_path / "a.csv", disc, u, p, resolution=20)
    monkeypatch.setattr(export, "CellLocator", LoopLocator)
    write_lattice_csv(tmp_path / "b.csv", disc, u, p, resolution=20)
    a, b = (tmp_path / "a.csv").read_bytes(), (tmp_path / "b.csv").read_bytes()
    assert a == b


def test_vtk_polygon_counts(tmp_path):
    mesh = generate_polygonal(4)
    data = {"p": np.arange(mesh.n_cells, dtype=float)}
    path = tmp_path / "out.vtk"
    write_vtk(path, mesh, data)
    text = path.read_text().splitlines()
    i = text.index(f"CELL_TYPES {mesh.n_cells}")
    types = text[i + 1:i + 1 + mesh.n_cells]
    assert set(types) == {"7"}
