"""Benchmark for cdgbrinkman: four workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

For ``--seconds`` seconds the runner repeats one operation of the workload,
each in a fresh interpreter (``op.py``) that imports the package from the
checkout's ``src/``, with BLAS threads capped at the number of usable CPUs.
Each operation is timed from spawn to exit and checked by the workload's
correctness gates; an operation fails if it exits non-zero, is killed, or
fails a gate.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the run's operations, with the
times at a fixed reference speed: see ``REF_NOMINAL_S``); with
``--trace 1`` the runner alternates traced and untraced operations and
reports the per-layer metrics of the traced ones plus the tracing overhead
(median traced ÷ median untraced wall time).
A fuller record (per-operation values, percentiles, machine fingerprint and,
for traced runs, every span) is written under ``.perfbench_out/``.
"""

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 3            # operations per run, so every median has three samples
HARD_LIMIT_S = 170.0   # a run never lasts longer than this
RESIDUAL_MAX = 1e-9
NORM_RTOL = 1e-6
ORACLE_MAX = 1e-8
RASTER_SIZE = 32
# 64x64 lattice samples on 32x32 cells: four samples per cell, the ratio of
# the CLI defaults (--n 128 would be too slow here) and of n=64 with 128^2
LATTICE = 64

CONVERGE_COLUMNS = ["h", "dof_u", "dof_p", "trb_e", "ord_trb", "l2_e",
                    "ord_l2", "l2_eps", "ord_eps", "h_eps", "ord_h_eps",
                    "seconds"]
# criterion 2 brackets for the final level of tri k=1, levels 4..32
CONVERGE_ORDERS = {"ord_l2": (1.75, 2.25), "ord_trb": (1.0, 1.5),
                   "ord_eps": (1.1, 1.7)}
RASTER_CELLS = 32 * 32

WORKLOADS = {
    "converge-tri-k1": {
        "cli": ["converge", "--mesh", "tri", "--k", "1", "--mu", "1",
                "--a", "1", "--levels", "4..32"],
        "seeded": False,
    },
    "darcy-rect-k3": {"cli": None, "seeded": False},
    "raster-cli-rect-k1": {
        "cli": ["solve", "--mesh", "rect", "--n", "32", "--k", "1",
                "--mu", "0.01", "--resolution", str(LATTICE)],
        "seeded": True,
    },
    "oracle-poly-k2": {"cli": None, "seeded": False},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "dofs_per_s": "1/s"}
# The speed of a shared host drifts by up to 30 % over minutes, and every
# time metric drifts with it.  So an untraced run times a fixed reference
# operation (reference.py) before each operation, and the result line gives
# the time metrics at the speed at which the reference takes REF_NOMINAL_S
# (about its median on the 2-CPU Xeon host where the benchmark was defined):
# each median times (REF_NOMINAL_S / median reference wall) ** power.  The
# measured medians stay in the record.
REF_NOMINAL_S = 1.2
AT_REF_SPEED = {"wall_s": 1, "cpu_s": 1, "setup_s": 1, "dofs_per_s": -1}

# per-layer time metrics: the span names they sum (outermost per layer only)
LAYER_TIMES = {
    "mesh.generate_s": {"generate_uniform_triangular",
                        "generate_uniform_rectangular", "generate_polygonal",
                        "load_mesh"},
    "weakgrad.discretization_s": {"Discretization"},
    "assembly.system_s": {"assemble_system"},
    "solver.solve_s": {"solve"},
    "analysis.project_s": {"project_velocity", "project_pressure",
                           "project_tensor"},
    "analysis.norms_s": {"norm_triple_bar", "norm_l2_velocity",
                         "norm_l2_pressure", "norm_pressure_jump",
                         "norm_triple_bar_1", "velocity_error_l2",
                         "pressure_error_l2"},
    "analysis.oracle_s": {"error_equation_residual"},
    "problems.raster_load_s": {"load_kappa_raster"},
    "export.vtk_s": {"cell_center_fields", "write_vtk"},
    "export.lattice_csv_s": {"write_lattice_csv"},
    "export.summary_s": {"write_summary"},
}
SETUP_METRICS = ("mesh.generate_s", "weakgrad.discretization_s")
# the layers after the solve; none of them calls into another, so their sum
# counts every call once, and it is non-zero on every workload
POST_METRICS = ("analysis.project_s", "analysis.norms_s", "analysis.oracle_s",
                "problems.raster_load_s", "export.vtk_s",
                "export.lattice_csv_s", "export.summary_s")

# every per-layer metric of a traced operation, with its unit ("self.*"
# per-layer self times are added in seconds)
LAYER_UNITS = dict(
    {"cli.import_s": "s", "cli.main_self_s": "s", "mesh.cells": "count",
     "mesh.shape_classes": "count", "weakgrad.cells_per_s": "1/s",
     "assembly.matrix_nnz": "count", "solver.nnz_factor": "count",
     "solver.fill_ratio": "ratio", "solver.rss_growth_mb": "MB",
     "solver.residual": "ratio", "export.bytes_written": "bytes",
     "post.solve_s": "s", "trace.overhead_s": "s",
     "trace.overhead_ratio": "ratio"},
    **dict.fromkeys(LAYER_TIMES, "s"))

# the per-layer metrics every workload exercises form the traced run's result
# line; the single analysis, problems and export times (and cli.main_self_s)
# are zero on some workloads, so the line carries their sum post.solve_s and
# the breakdown is printed and recorded.  trace.overhead_s (traced minus
# untraced wall) can be negative within the noise, so the line carries the
# ratio instead
PER_LAYER = ("cli.import_s", "mesh.generate_s", "mesh.cells",
             "mesh.shape_classes", "weakgrad.discretization_s",
             "weakgrad.cells_per_s", "assembly.system_s",
             "assembly.matrix_nnz", "solver.solve_s", "solver.nnz_factor",
             "solver.fill_ratio", "solver.rss_growth_mb", "solver.residual",
             "post.solve_s", "trace.overhead_ratio")


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_raster(path, seed):
    """32x32 piecewise-constant kappa^{-1} spanning exactly four decades."""
    rng = random.Random(seed)
    raw = [rng.random() for _ in range(RASTER_SIZE * RASTER_SIZE)]
    lo, hi = min(raw), max(raw)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{RASTER_SIZE} {RASTER_SIZE}\n")
        for r in range(RASTER_SIZE):
            row = raw[r * RASTER_SIZE:(r + 1) * RASTER_SIZE]
            fh.write(" ".join(f"{10.0 ** (4.0 * (v - lo) / (hi - lo)):.17g}"
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# one operation
# ---------------------------------------------------------------------------

def child_env(threads):
    env = dict(os.environ)
    env.pop("CDG_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(cmd, env, cwd, timeout):
    """Run ``cmd`` in ``cwd``, logging to log.txt; kill it after ``timeout``.
    Return (spawn time, exit code, wall seconds, rusage)."""
    with open(cwd / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - t_spawn
    return t_spawn, os.waitstatus_to_exitcode(status), wall, usage


def run_reference(opdir, env, timeout):
    """Wall seconds of one reference operation (reference.py)."""
    _, code, wall, _ = spawn([sys.executable, str(HERE / "reference.py")],
                             env, opdir, timeout)
    if code != 0:
        tail = (opdir / "log.txt").read_text(errors="replace")[-400:]
        raise BenchError(f"reference operation failed ({code}): {tail}")
    return wall


def run_op(workload, opdir, trace, field, env, timeout, refs):
    """Spawn one operation; return its record with timings and failures."""
    spec = WORKLOADS[workload]
    result_path = opdir / "result.json"
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", workload,
           "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if spec["cli"] is not None:
        cmd += ["--"] + spec["cli"] + ["--out", str(opdir / "out")]
        if spec["seeded"]:
            cmd += ["--kappa-raster", str(field)]
    t_spawn, code, wall, usage = spawn(cmd, env, opdir, timeout)
    op = {"trace": trace, "exit": code, "wall_s": wall,
          "cpu_s": usage.ru_utime + usage.ru_stime,
          "peak_rss_mb": usage.ru_maxrss / 1024.0,
          "failures": []}
    if code != 0:
        tail = (opdir / "log.txt").read_text(errors="replace")[-400:]
        op["failures"].append(f"exit code {code}: {tail.strip()}")
        return op, None
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError) as exc:
        op["failures"].append(f"no result file: {exc}")
        return op, None

    spans = res["spans"]
    times = layer_times(spans)
    solves = facts_of(res, "solve")
    op["setup_s"] = (res["import_done"] - t_spawn
                     + sum(times[m] for m in SETUP_METRICS))
    op["dofs"] = sum(f["dofs"] for f in solves)
    op["dofs_per_s"] = op["dofs"] / op["wall_s"]
    op["failures"] += check_residuals(solves)
    op["failures"] += GATES[workload](opdir, res, refs)
    if trace:
        op["layers"] = layer_metrics(res, times, opdir)
    return op, res


def facts_of(res, *names):
    spans = res["spans"]
    return [fact for idx, fact in res["facts"] if spans[idx][0] in names]


def layer_times(spans):
    """Seconds per LAYER_TIMES metric, counting only the outermost span of a
    layer so nested calls (a projection inside the oracle) count once."""
    metric_of = {n: m for m, names in LAYER_TIMES.items() for n in names}
    totals = dict.fromkeys(LAYER_TIMES, 0.0)
    for name, layer, t0, t1, parent in spans:
        metric = metric_of.get(name)
        if metric is None:
            continue
        while parent >= 0:
            pname, player, _, _, pparent = spans[parent]
            if player == layer and pname in metric_of:
                break
            parent = pparent
        else:
            totals[metric] += t1 - t0
    return totals


def self_times(spans):
    """Per-layer self time: each span's duration minus its direct children."""
    child = [0.0] * len(spans)
    for _, _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, layer, t0, t1, _) in enumerate(spans):
        key = f"{layer}.{name}" if name == "main" else layer
        out[key] = out.get(key, 0.0) + (t1 - t0 - child[i])
    return out


def layer_metrics(res, times, opdir):
    """Every per-layer metric of one traced operation."""
    meshes = facts_of(res, *LAYER_TIMES["mesh.generate_s"])
    discs = facts_of(res, "Discretization")
    systems = facts_of(res, "assemble_system")
    solves = facts_of(res, "solve")
    selfs = self_times(res["spans"])
    out = {"cli.import_s": res["import_done"] - res["start"],
           "cli.main_self_s": selfs.get("cli.main", 0.0)}
    out.update(times)
    out["post.solve_s"] = sum(times[m] for m in POST_METRICS)
    disc_cells = sum(f["cells"] for f in discs)
    nnz_factor = sum(f["nnz_factor"] for f in solves)
    solved_nnz = sum(f["matrix_nnz"] for f in solves)
    out.update({
        "mesh.cells": sum(f["cells"] for f in meshes),
        "mesh.shape_classes": max((f["shape_classes"] for f in meshes),
                                  default=0),
        "weakgrad.cells_per_s": (disc_cells / times["weakgrad.discretization_s"]
                                 if disc_cells else 0.0),
        "assembly.matrix_nnz": sum(f["matrix_nnz"] for f in systems),
        "solver.nnz_factor": nnz_factor,
        "solver.fill_ratio": nnz_factor / solved_nnz if solved_nnz else 0.0,
        "solver.rss_growth_mb": sum(f["rss_growth_mb"] for f in solves),
        "solver.residual": max((f["residual"] for f in solves), default=0.0),
        "export.bytes_written": sum(p.stat().st_size
                                    for p in (opdir / "out").glob("*")
                                    if p.is_file()),
    })
    out.update({f"self.{k}_s": v for k, v in selfs.items()})
    return out


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of failure messages
# ---------------------------------------------------------------------------

def load_references():
    """Error norms recorded at the seed commit, keyed by workload."""
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_residuals(solves):
    if not solves:
        return ["no solve was observed"]
    worst = max(f["residual"] for f in solves)
    if not worst <= RESIDUAL_MAX:
        return [f"solve residual {worst:.3e} > {RESIDUAL_MAX:.0e}"]
    return []


def check_norms(label, got, want):
    fails = []
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= NORM_RTOL * abs(w):
            fails.append(f"{label}[{i}] = {g!r}, reference {w!r}")
    return fails


def gate_converge(opdir, res, refs):
    path = opdir / "out" / "converge_tri_k1.csv"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"converge CSV missing: {exc}"]
    fails = []
    if not rows or rows[0] != CONVERGE_COLUMNS:
        fails.append(f"CSV header {rows[:1]} is not the README's 12 columns")
        return fails
    if len(rows) != 5:
        fails.append(f"CSV has {len(rows) - 1} rows, expected 4")
        return fails
    last = dict(zip(rows[0], rows[-1]))
    for col, (lo, hi) in CONVERGE_ORDERS.items():
        try:
            val = float(last[col])
        except ValueError:
            val = float("nan")
        if not lo <= val <= hi:
            fails.append(f"final {col} {last[col]!r} outside [{lo}, {hi}]")
    levels = res["outputs"].get("levels", [])
    flat = [v for level in levels for v in level]
    want = [v for level in refs for v in level]
    fails += check_norms("level norms", flat, want)
    return fails


def gate_norms(opdir, res, refs):
    return check_norms("norms", res["outputs"].get("norms", []), refs)


def gate_oracle(opdir, res, refs):
    fails = gate_norms(opdir, res, refs)
    orc = res["outputs"].get("oracle")
    if not orc:
        return fails + ["oracle was not run"]
    ratio = max(orc["res_momentum"], orc["res_mass"]) / orc["scale"]
    if not ratio <= ORACLE_MAX:
        fails.append(f"oracle residual / scale {ratio:.3e} > {ORACLE_MAX:.0e}")
    return fails


def read_vtk_cell_field(lines, name, n):
    head = f"SCALARS {name} double 1"
    i = lines.index(head)
    return [float(v) for v in lines[i + 2:i + 2 + n]]


def gate_raster(opdir, res, refs):
    out = opdir / "out"
    fails = []
    try:
        lines = (out / "solution.vtk").read_text(encoding="utf-8").splitlines()
        n_lattice = sum(1 for _ in open(out / "solution_grid.csv",
                                        encoding="utf-8"))
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"missing output: {exc}"]
    if not lines or not lines[0].startswith("# vtk DataFile"):
        fails.append("solution.vtk lacks the VTK header")
    if f"CELL_DATA {RASTER_CELLS}" not in lines:
        fails.append(f"solution.vtk lacks CELL_DATA {RASTER_CELLS}")
    else:
        try:
            u1 = read_vtk_cell_field(lines, "u1", RASTER_CELLS)
            u2 = read_vtk_cell_field(lines, "u2", RASTER_CELLS)
            speed = max(math.hypot(a, b) for a, b in zip(u1, u2))
            if not speed <= 10.0:
                fails.append(f"max |u| at centroids {speed:.4g} > 10")
        except ValueError as exc:
            fails.append(f"unreadable VTK cell data: {exc}")
    if n_lattice != 1 + LATTICE * LATTICE:
        fails.append(f"lattice CSV has {n_lattice} lines, "
                     f"expected {1 + LATTICE * LATTICE}")
    if not summary.get("residual", 1.0) <= RESIDUAL_MAX:
        fails.append(f"summary residual {summary.get('residual')}")
    return fails


GATES = {"converge-tri-k1": gate_converge, "darcy-rect-k3": gate_norms,
         "raster-cli-rect-k1": gate_raster, "oracle-poly-k2": gate_oracle}


# ---------------------------------------------------------------------------
# statistics, fingerprint, output
# ---------------------------------------------------------------------------

def describe(values):
    """Median, plus the highest of p90/p95/p99 with ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "percentile": None}
    for p in (99, 95, 90):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            out["percentile"] = {"p": p, "value": s[rank - 1]}
            break
    return out


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fingerprint(threads, versions):
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {"nproc": usable_cpus(), "blas_threads": threads, "cpu": model,
            **(versions or {}), "src_lines": src_lines}


def run_workload(workload, seed, seconds, trace):
    """Run one workload for ``seconds``; return (result line, record)."""
    refs = load_references().get(workload)
    threads = usable_cpus()
    env = child_env(threads)
    rundir = OUT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    field = rundir / "kappa.csv"
    if WORKLOADS[workload]["seeded"]:
        write_raster(field, seed)

    ops, spans, versions, ref_walls, rounds = [], [], None, [], []
    start = time.monotonic()
    try:
        while True:
            t_round = time.monotonic()
            elapsed = t_round - start
            if (len(ops) >= MIN_OPS
                    and elapsed + statistics.median(rounds) > seconds):
                break
            if elapsed >= HARD_LIMIT_S - 5.0:
                break
            opdir = rundir / f"op{len(ops)}"
            opdir.mkdir()
            traced = trace and len(ops) % 2 == 0
            if not trace:
                ref_walls.append(run_reference(opdir, env,
                                               HARD_LIMIT_S - elapsed))
            op, res = run_op(workload, opdir, traced, field, env,
                             HARD_LIMIT_S - (time.monotonic() - start), refs)
            op["id"] = len(ops)
            ops.append(op)
            rounds.append(time.monotonic() - t_round)
            if res is not None:
                versions = versions or res["versions"]
                if traced:
                    spans += [[op["id"]] + s for s in res["spans"]]
            shutil.rmtree(opdir, ignore_errors=True)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    good = [o for o in ops if not o["failures"]]
    failed = len(ops) - len(good)
    stats = {}
    if trace:
        untraced = [o["wall_s"] for o in good if not o["trace"]]
        traced_ops = [o for o in good if o["trace"]]
        names = sorted({k for o in traced_ops for k in o["layers"]})
        for name in names:
            stats[name] = describe([o["layers"].get(name, 0.0)
                                    for o in traced_ops])
        if traced_ops and untraced:
            t_med = statistics.median(o["wall_s"] for o in traced_ops)
            u_med = statistics.median(untraced)
            n = len(traced_ops) + len(untraced)
            stats["trace.overhead_s"] = {"median": t_med - u_med, "n": n,
                                         "percentile": None}
            stats["trace.overhead_ratio"] = {"median": t_med / u_med, "n": n,
                                             "percentile": None}
        units = {name: LAYER_UNITS[name] for name in PER_LAYER}
        scale = {}
    else:
        for name in END_TO_END:
            vals = [o[name] for o in good]
            if vals:
                stats[name] = describe(vals)
        stats["reference_s"] = describe(ref_walls)
        speed = REF_NOMINAL_S / stats["reference_s"]["median"]
        scale = {name: speed ** power for name, power in AT_REF_SPEED.items()}
        units = END_TO_END
    metrics = {name: {"value": stats[name]["median"] * scale.get(name, 1.0),
                      "unit": unit}
               for name, unit in units.items() if name in stats}
    line = {"correct": failed == 0 and len(metrics) == len(units),
            "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "scale": scale,
              "seed_used": WORKLOADS[workload]["seeded"],
              "seconds": seconds, "trace": trace,
              "fingerprint": fingerprint(threads, versions),
              "stats": stats, "ops": ops, "spans": spans}
    return line, record


def print_report(workload, record, line):
    print(f"== {workload} (seed {record['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, "
          f"{line['attempted']} operations, {line['failed']} failed)")
    units = dict(END_TO_END, **LAYER_UNITS)
    for name, st in record["stats"].items():
        pct = st["percentile"]
        tail = (f"p{pct['p']} {pct['value']:.6g}" if pct
                else "no percentile with 10 samples beyond")
        factor = record["scale"].get(name)
        at_ref = (f"; {st['median'] * factor:.6g} at reference speed"
                  if factor else "")
        print(f"  {name:<28} {st['median']:>14.6g} {units.get(name, 's'):<6}"
              f" median of {st['n']}; {tail}{at_ref}")
    for op in record["ops"]:
        for msg in op["failures"]:
            print(f"  op {op['id']} FAILED: {msg}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "cdgbrinkman" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    line, record = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print_report(args.workload, record, line)
    print(f"  record: {path}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
