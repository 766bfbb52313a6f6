"""Every command, tool and example run the way a user runs it: in a
subprocess from the repository root (the ``slow`` tier).

Run with ``python -m pytest -q -m slow``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv) -> str:
    """``python argv...`` from the repository root: its stdout, on exit 0."""
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _repro_json(*argv) -> dict:
    return json.loads(_run("-m", "repro", *argv, "--json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "pbft", "--n", "7", "--f", "2"],
        ["run", "streamlined", "--n", "16"],
        ["sweep", "--trials", "4", "--workers", "2"],
        # Every protocol x every adversary.
        ["sweep", "--matrix", "adversary-complete", "--trials", "2", "--workers", "2"],
        ["serve", "--matrix", "--rotate-leaders", "--arrival", "both",
         "--num-clients", "6", "--requests-per-client", "3"],
        ["serve", "--protocol", "pbft", "--matrix", "--rotate-leaders",
         "--num-clients", "6", "--requests-per-client", "3"],
    ],
    ids=["run-pbft", "run-streamlined", "sweep", "sweep-adversary-complete",
         "serve-matrix", "serve-pbft-matrix"],
)
def test_command_exits_0(argv):
    _run("-m", "repro", *argv)


def test_sweep_reports_are_equal_serial_and_pooled():
    base, pooled = (
        _repro_json("sweep", "--trials", "3", "--workers", workers, "--seed", "7")
        for workers in ("0", "2")
    )
    assert base["backend"] == "serial" and pooled["backend"] == "pool"
    # Everything but the execution metadata is bit-identical.
    for key in ("matrix", "n", "f", "trials", "master_seed", "rows"):
        assert pooled[key] == base[key], key


def test_adaptive_sweep_stops_early_and_pools_identically():
    argv = ("sweep", "--trials", "64", "--target-width", "0.2", "--chunk", "8",
            "--seed", "5")
    report = _repro_json(*argv)
    assert report["target_width"] == 0.2 and report["chunk"] == 8
    for row in report["rows"]:
        # Beats its max-trials cap, converges to the target, and carries a
        # validating adaptive row shape.
        assert 1 <= row["trials_used"] < report["trials"], row
        assert row["stop_reason"] == "target-width", row
        assert row["interval_width"] <= 0.2, row
        low, high = row["agreement_ci_low"], row["agreement_ci_high"]
        assert low <= row["agreement_rate"] <= high, row
    pooled = _repro_json(*argv, "--workers", "2")
    assert report["backend"] == "serial" and pooled["backend"] == "pool"
    for key in ("matrix", "n", "f", "trials", "master_seed", "target_width",
                "chunk", "rows"):
        assert pooled[key] == report[key], key


def test_ab_pairs_self_pair_has_equal_sim_metrics():
    out = _run("tools/ab_pairs.py", "--a", ".", "--b", ".", "--workload",
               "sweep-matrix", "--pairs", "1", "--seconds", "2")
    report = json.loads(out.strip().splitlines()[-1])
    assert report["workload"] == "sweep-matrix" and report["pairs"] == 1
    assert report["seeds"] == [100] and report["problems"] == []
    assert report["sim_metrics_equal"] is True
    for name in ("setup_s", "trials_per_s", "trial_wall_s", "peak_rss_mb",
                 "msgs_per_op", "sim_latency_p50", "sim_latency_tail"):
        row = report["metrics"][name]
        assert {"unit", "better", "a", "b", "b_wins", "b_losses", "pairs", "gap",
                "gap_share", "a_iqr", "gap_exceeds_a_iqr"} <= set(row), name
        assert set(row["a"]) == set(row["b"]) == {"median", "q1", "q3"}
    for name in ("msgs_per_op", "sim_latency_p50", "sim_latency_tail"):
        assert report["metrics"][name]["gap"] == 0.0, name


@pytest.mark.parametrize(
    "example", sorted(path.name for path in (ROOT / "examples").glob("*.py"))
)
def test_example_exits_0(example):
    _run(f"examples/{example}")
