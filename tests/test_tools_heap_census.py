"""Smoke test of ``tools/heap_census.py`` (one cell's tracemalloc peak and the
lines of what the finished trial keeps) at a small n."""

import importlib.util
import json
import os

from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import run_trial

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "heap_census.py")
_spec = importlib.util.spec_from_file_location("heap_census", _PATH)
heap_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heap_census)


def test_census_of_a_small_cell():
    out = heap_census.census("probft", "none", "constant", 16, seed=3, max_time=600.0, top=6)
    spec = cell_deployment_spec(MatrixCell("probft", "none", "constant", n=16, f=5), 3, 600.0)
    assert out["all_decided"] and out["messages"] == run_trial(spec).total_messages
    assert out["cell"]["f"] == 5  # ProtocolConfig(16).f
    assert 0 < out["kept_bytes"] and 0 < out["peak_mem_mb"] * 2**20
    lines = out["lines"]
    assert 0 < len(lines) <= 6
    assert [line["bytes"] for line in lines] == sorted((line["bytes"] for line in lines), reverse=True)
    assert sum(line["bytes"] for line in lines) <= out["kept_bytes"]
    assert all(line["where"].rpartition(":")[2].isdigit() for line in lines)


def test_main_prints_the_census_and_ends_with_json(capsys):
    assert heap_census.main(["probft", "none", "constant", "9", "--seed", "2", "--top", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("peak ") and "all_decided=True" in out[0]
    assert len(out) == 2 + 3 + 1  # summary, header, three lines, JSON
    summary = json.loads(out[-1])
    assert summary["cell"]["n"] == 9 and "lines" not in summary
