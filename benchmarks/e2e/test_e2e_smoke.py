"""Tier-1 smoke for the benchmark: every workload at toy size, end to end
and traced, through the real command in child processes.

Collected by the root ``pytest`` run (the legacy ``bench_*.py`` files are
not), so a change that breaks a public call the adapter binds to, renames a
counter, or lets ``BENCHMARK.json`` drift from what the runner prints fails
CI instead of the next measurement.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_run_matches_benchmark_json(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)

    assert report["correct"] and report["problems"] == []
    assert report["claim"] is None
    assert set(report["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, entry in report["workloads"].items():
        assert NAME.fullmatch(name), name
        for which in ("end_to_end", "per_layer"):
            measured = entry[which]["median"]
            assert set(measured) == {m["name"] for m in contract[which]}, (name, which)
            for metric, value in measured.items():
                assert NAME.fullmatch(metric), metric
                assert isinstance(value, (int, float)), (name, metric, value)
        for metric in ("trials_per_s", "msgs_per_op", "sim_latency_p50"):
            assert entry["end_to_end"]["median"][metric] > 0, (name, metric)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0 and summary["attempted"] > 0
