import copy
import importlib.util
import io
from pathlib import Path

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
