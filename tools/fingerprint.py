"""Fingerprint the solver's results, to show that a change keeps them.

Runs eight library cases (example1 on tri, rect, poly and a perturbed rect
mesh) and two CLI solves with the package in this checkout's ``src/``, and
writes one JSON: for each case and each array (the weak-gradient maps
``vel``, ``pre``, ``jump_maps()`` and ``nbr_m``, the six flat half-edge
arrays, the blocks A/B/S/F/G/m, the solution u, p, the error norms, the
error-equation residuals and ``nnz_factor``; the bytes of each CLI output
file and each ``summary.json`` key) its sha256, shape, norm, largest
absolute entry and sum of absolute entries, together with the BLAS thread
count.

    python tools/fingerprint.py --src ../old/src --out old.json
    python tools/fingerprint.py --out new.json --against old.json

``--src`` names the ``src/`` directory to import the package from, to
fingerprint another checkout.  ``--against`` prints, per array,
"identical" or the largest relative difference the two records show (of
the values of a small array, else the largest relative move of its norm,
largest |x| and sum of |x|), and names, as skipped, the arrays that only
one of them holds (an older checkout lacks some); it exits 1 when any
array differs.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (mesh family, divisions, k, a, interior vertex perturbation / h)
CASES = {
    "tri8-k1": ("tri", 8, 1, 1.0, 0.0),
    "tri4-k3": ("tri", 4, 3, 1.0, 0.0),
    "rect8-k2": ("rect", 8, 2, 1.0, 0.0),
    "rect16-k3-a1e4": ("rect", 16, 3, 1e4, 0.0),
    "poly16-k2": ("poly", 16, 2, 1.0, 0.0),
    "poly8-k1": ("poly", 8, 1, 1.0, 0.0),
    "poly8-k3": ("poly", 8, 3, 1.0, 0.0),
    "rect6-k2-perturbed": ("rect", 6, 2, 1.0, 0.2),
}
CLI_CASES = {
    "cli-rect16-k1-vuggy": ["--mesh", "rect", "--n", "16", "--k", "1",
                            "--mu", "0.01", "--resolution", "16",
                            "--kappa-raster", "vuggy"],
    "cli-poly8-k2": ["--mesh", "poly", "--n", "8", "--k", "2",
                     "--resolution", "12"],
}
GENERATORS = {"tri": "generate_uniform_triangular",
              "rect": "generate_uniform_rectangular",
              "poly": "generate_polygonal"}
EDGE_ARRAYS = ("edge_points", "edge_weights", "edge_owner", "edge_normal",
               "edge_index", "edge_twin")
SMALL = 16  # arrays of at most this many entries keep their values


def load(src=SRC):
    """The package, imported from ``src`` (this checkout's by default)."""
    sys.path.insert(0, str(src))
    import cdgbrinkman
    import cdgbrinkman.cli
    return cdgbrinkman


def blas_threads():
    """The thread count of the OpenBLAS that numpy bundles, else the
    ``OPENBLAS_NUM_THREADS`` setting (None when unset)."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in glob.glob(str(libs / "libscipy_openblas*")):
        get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return os.environ.get("OPENBLAS_NUM_THREADS")


# the statistics of an array's entries that a record keeps beside its hash
STATS = ("norm", "max_abs", "sum_abs")


def record(*arrays):
    """sha256 (of dtype, shape and bytes), shapes, norm, largest |x| and
    sum of |x| of one or more arrays taken together; their values too when
    there are few."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(f"{a.dtype.str}{a.shape}".encode())
        sha.update(a.tobytes())
    shape = [list(a.shape) for a in arrays]
    absolute = [np.abs(a, dtype=float) for a in arrays]
    rec = {"sha256": sha.hexdigest(),
           "shape": shape[0] if len(shape) == 1 else shape,
           "norm": math.sqrt(sum(float(np.square(a).sum())
                                 for a in absolute)),
           "max_abs": max((float(a.max()) for a in absolute if a.size),
                          default=0.0),
           "sum_abs": sum(float(a.sum()) for a in absolute)}
    if sum(a.size for a in arrays) <= SMALL:
        rec["values"] = np.concatenate([a.ravel() for a in arrays]).tolist()
    return rec


def _csr(m):
    return record(m.indptr, m.indices, m.data)


def _mesh(cb, family, n, amplitude, seed=7):
    mesh = getattr(cb, GENERATORS[family])(n)
    if not amplitude:
        return mesh
    v = mesh.vertices.copy()
    inside = np.all((v > 1e-9) & (v < 1.0 - 1e-9), axis=1)
    rng = np.random.default_rng(seed)
    v[inside] += amplitude * mesh.labeled_h * rng.uniform(
        -1.0, 1.0, (inside.sum(), 2))
    return cb.Mesh(v, np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1]),
                   labeled_h=mesh.labeled_h)


def _attribute(out, name, get):
    """out[name] = get(), left out where the package lacks what ``get``
    reads."""
    try:
        out[name] = get()
    except AttributeError:
        pass


def library_case(cb, family, n, k, a, amplitude):
    """The arrays of one example1 solve (see the module docstring)."""
    disc = cb.Discretization(_mesh(cb, family, n, amplitude), k)
    problem = cb.example1(mu=1.0, a=a)
    system = cb.assemble_system(disc, problem)
    sol = cb.solve(system)
    out = {}
    _attribute(out, "vel", lambda: record(*disc.vel))
    _attribute(out, "pre", lambda: record(*disc.pre))
    _attribute(out, "jump_maps", lambda: record(*disc.jump_maps()))
    _attribute(out, "nbr_m",
               lambda: record(*(cls.nbr_m for cls in disc.classes)))
    for name in EDGE_ARRAYS:
        _attribute(out, name, lambda: record(getattr(disc, name)))
    for name in ("A", "B", "S"):
        out[name] = _csr(getattr(system, name))
    for name in ("F", "G", "m"):
        out[name] = record(getattr(system, name))
    out["u"], out["p"] = record(sol.u), record(sol.p)
    e = cb.project_velocity(disc, problem.u) - sol.u
    eps = cb.project_pressure(disc, problem.p) - sol.p
    out["norms"] = record(np.array([
        cb.norm_triple_bar(disc, problem, e), cb.norm_l2_velocity(disc, e),
        cb.norm_l2_pressure(disc, eps), cb.norm_pressure_jump(disc, eps),
        cb.norm_triple_bar_1(disc, problem, eps)]))
    res = cb.error_equation_residual(disc, problem, system, sol)
    out["oracle"] = record(np.array([res["res_momentum"], res["res_mass"],
                                     res["scale"]]))
    out["nnz_factor"] = record(np.array([sol.stats["nnz_factor"]]))
    return out


def cli_case(cb, argv):
    """The bytes of a CLI solve's output files, and of each summary key."""
    argv = list(argv)
    if "--kappa-raster" in argv:
        at = argv.index("--kappa-raster") + 1
        argv[at] = str(cb.sample_raster_path(argv[at]))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cb.cli.main(["solve", *argv, "--out", tmp])
        if code != 0:
            raise RuntimeError(f"solve {' '.join(argv)} exited {code}")
        for name in ("solution.vtk", "solution_grid.csv"):
            data = (Path(tmp) / name).read_bytes()
            out[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                         "shape": [len(data)]}
        summary = json.loads((Path(tmp) / "summary.json").read_text())
    for key, value in summary.items():
        text = json.dumps(value, sort_keys=True)
        out[f"summary.json:{key}"] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "value": value}
    return out


def fingerprint(cb, names=None):
    """The record of the named cases (all when None) of the package cb."""
    names = names or [*CASES, *CLI_CASES]
    cases = {}
    for name in names:
        if name in CASES:
            cases[name] = library_case(cb, *CASES[name])
        else:
            cases[name] = cli_case(cb, CLI_CASES[name])
    return {"blas_threads": blas_threads(), "numpy": np.__version__,
            "cases": cases}


def difference(new, old):
    """"identical", or the largest relative difference of two records."""
    if new["sha256"] == old["sha256"]:
        return "identical"
    if new.get("shape") != old.get("shape"):
        return f"shape {old.get('shape')} -> {new.get('shape')}"
    if "values" in new and "values" in old:
        a, b = (np.asarray(r["values"], float) for r in (new, old))
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(b),
                                                np.finfo(float).tiny))
        return f"largest relative difference {rel:.3g}"
    moves = {name: abs(new[name] - old[name]) / max(abs(old[name]),
                                                    np.finfo(float).tiny)
             for name in STATS if name in new and name in old}
    if moves:
        name = max(moves, key=moves.get)
        return f"differs; largest relative move {moves[name]:.3g} ({name})"
    if "value" in new and "value" in old:
        return f"differs: {old['value']} -> {new['value']}"
    return "differs"


def compare(new, old, stream=sys.stdout):
    """Print each array's difference; return the number that differ."""
    differ = 0
    if new["blas_threads"] != old["blas_threads"]:
        print(f"note: BLAS threads {old['blas_threads']} -> "
              f"{new['blas_threads']}", file=stream)
    for case in sorted(set(new["cases"]) | set(old["cases"])):
        if case not in new["cases"] or case not in old["cases"]:
            where = "new" if case in new["cases"] else "old"
            print(f"{case}: skipped, only in the {where} record", file=stream)
            continue
        a, b = new["cases"][case], old["cases"][case]
        for name in [*a, *(n for n in b if n not in a)]:
            if name not in a or name not in b:
                where = "new" if name in a else "old"
                print(f"{case} {name}: skipped, only in the {where} record",
                      file=stream)
                continue
            result = difference(a[name], b[name])
            differ += result != "identical"
            print(f"{case} {name}: {result}", file=stream)
    print(f"{differ} arrays differ", file=stream)
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON record to write")
    ap.add_argument("--against", help="an earlier record to compare with")
    ap.add_argument("--src", default=SRC,
                    help="the src/ directory to import the package from")
    args = ap.parse_args(argv)
    rec = fingerprint(load(args.src))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as f:
        old = json.load(f)
    return 1 if compare(rec, old) else 0


if __name__ == "__main__":
    sys.exit(main())
