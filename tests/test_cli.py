import csv
import json
import sys

import numpy as np
import pytest

from cdgbrinkman.analysis import CSV_COLUMNS
from cdgbrinkman.cli import main
from cdgbrinkman.export import CellLocator, write_vtk
from cdgbrinkman.mesh import generate_polygonal, generate_uniform_triangular, save_mesh
from cdgbrinkman.problems import sample_raster_path


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


def test_solve_missing_raster_exit_2(tmp_path, capsys):
    code = main(["solve", "--kappa-raster", "/nonexistent/k.csv",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--kappa-raster" in err


@pytest.mark.parametrize("entry", ["0", "nan"])
def test_solve_bad_raster_entry_exit_2(tmp_path, capsys, entry):
    raster = tmp_path / "k.csv"
    raster.write_text(f"2 2\n1 {entry}\n3 4\n")
    code = main(["solve", "--mesh", "rect", "--n", "2", "--kappa-raster",
                 str(raster), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--kappa-raster" in err and "row 0, col 1" in err


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


def test_solve_solver_flag_removed_exit_2(tmp_path, capsys):
    # the direct solve is the only solve; argparse rejects the old flag
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--solver", "direct", "--n", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--solver" in capsys.readouterr().err


def test_unknown_mesh_family_exit_2(tmp_path, capsys):
    code = main(["solve", "--mesh", "hexagonal", "--out", str(tmp_path)])
    assert code == 2
    assert "--mesh" in capsys.readouterr().err


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CDG_THREADS", "1")
    code = main(["converge", "--mesh", "rect", "--k", "1",
                 "--levels", "2..2", "--out", str(tmp_path)])
    assert code == 0
    monkeypatch.setenv("CDG_THREADS", "zebra")
    code = main(["converge", "--mesh", "rect", "--k", "1",
                 "--levels", "2..2", "--out", str(tmp_path)])
    assert code == 2


def test_thread_cap_without_threadpoolctl_warns(tmp_path, monkeypatch,
                                                capsys):
    # BLAS has loaded before the cap could act, so the run goes on and
    # stderr names the variables to set before launch
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("CDG_THREADS", "1")
    code = main(["converge", "--mesh", "rect", "--k", "1",
                 "--levels", "2..2", "--out", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "CDG_THREADS=1 not applied" in err
    assert "OPENBLAS_NUM_THREADS" in err


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


def test_vtk_polygon_counts(tmp_path):
    mesh = generate_polygonal(4)
    data = {"p": np.arange(mesh.n_cells, dtype=float)}
    path = tmp_path / "out.vtk"
    write_vtk(path, mesh, data)
    text = path.read_text().splitlines()
    i = text.index(f"CELL_TYPES {mesh.n_cells}")
    types = text[i + 1:i + 1 + mesh.n_cells]
    assert set(types) == {"7"}
