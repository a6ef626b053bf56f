import copy
import importlib.util
import io
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_fingerprint_runs_agree_and_compare_names_changes():
    # two runs in one process give the same record; no hash is pinned
    tool = load_tool()
    cb = tool.load()
    first, second = (tool.fingerprint(cb, ["tri8-k1"]) for _ in range(2))
    assert first == second
    case = first["cases"]["tri8-k1"]
    assert {"vel", "edge_twin", "A", "u", "oracle", "nnz_factor"} <= set(case)
    out = io.StringIO()
    assert tool.compare(second, first, out) == 0
    assert "tri8-k1 A: identical" in out.getvalue()
    # an array that moved, and one that the older record lacks
    old = copy.deepcopy(first)
    old["cases"]["tri8-k1"]["norms"]["sha256"] = "0"
    old["cases"]["tri8-k1"]["norms"]["values"][0] *= 1.0 + 1e-9
    del old["cases"]["tri8-k1"]["nbr_m"]
    out = io.StringIO()
    assert tool.compare(first, old, out) == 1
    text = out.getvalue()
    assert "tri8-k1 norms: largest relative difference 1e-09" in text
    assert "tri8-k1 nbr_m: skipped, only in the new record" in text


def test_record_keeps_entry_statistics_and_compare_reports_the_largest():
    tool = load_tool()
    a, b = np.array([3.0, -4.0]), np.array([[1, -2], [0, 0]])
    rec = tool.record(a, b)
    assert rec["norm"] == np.sqrt(30.0)
    assert rec["max_abs"] == 4.0
    assert rec["sum_abs"] == 10.0
    assert tool.record(np.zeros(0))["max_abs"] == 0.0
    # a large array keeps no values: its move is read off the statistics,
    # and the largest of the three is named
    x = np.linspace(-1.0, 2.0, 2 * tool.SMALL)
    y = x.copy()
    y[-1] *= 1.0 + 1e-6
    old, new = tool.record(x), tool.record(y)
    assert "values" not in new
    moves = {name: abs(new[name] - old[name]) / abs(old[name])
             for name in tool.STATS}
    assert max(moves, key=moves.get) == "max_abs"
    assert tool.difference(new, old) == (
        f"differs; largest relative move {moves['max_abs']:.3g} (max_abs)")
    # a record without the newer statistics compares by its norm alone
    older = {k: v for k, v in old.items() if k not in ("max_abs", "sum_abs")}
    assert tool.difference(new, older) == (
        f"differs; largest relative move {moves['norm']:.3g} (norm)")
