"""Tests for ``tools/ab_pairs.py`` (the alternating-pairs measurement).

The subprocess runs are faked: what is pinned here is the arithmetic of the
pairing rule, the run order and the loud failure on a simulation-side
difference.  CI runs one real self-pair.
"""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

LOWER = {"name": "trial_wall_s", "unit": "s", "better": "lower"}
HIGHER = {"name": "trials_per_s", "unit": "1/s", "better": "higher"}


class TestCompare:
    def test_wins_follow_the_metric_direction_and_ties_count_for_neither(self):
        a = [1.0, 1.0, 1.0, 1.0]
        b = [0.9, 1.1, 1.0, 0.8]
        lower = ab_pairs.compare(LOWER, a, b)
        assert (lower["b_wins"], lower["b_losses"], lower["pairs"]) == (2, 1, 4)
        higher = ab_pairs.compare(HIGHER, a, b)
        assert (higher["b_wins"], higher["b_losses"]) == (1, 2)

    def test_medians_quartiles_and_the_iqr_rule(self):
        a = [10.0, 10.2, 10.4, 10.6, 10.8]
        b = [9.0, 9.1, 9.2, 9.3, 9.4]
        row = ab_pairs.compare(LOWER, a, b)
        assert row["a"] == {"median": 10.4, "q1": 10.2, "q3": 10.6}
        assert row["b"]["median"] == 9.2
        assert row["gap"] == pytest.approx(-1.2)
        assert row["gap_share"] == pytest.approx(-1.2 / 10.4)
        assert row["a_iqr"] == pytest.approx(0.4) and row["gap_exceeds_a_iqr"]
        close = ab_pairs.compare(LOWER, a, [v - 0.1 for v in a])
        assert close["b_wins"] == 5 and not close["gap_exceeds_a_iqr"]

    def test_one_pair_has_no_spread_to_exceed(self):
        row = ab_pairs.compare(LOWER, [1.0], [0.5])
        assert row["a_iqr"] == 0.0 and not row["gap_exceeds_a_iqr"]


def _fake_runs(monkeypatch, tmp_path, wall_of, msgs_of):
    contract = {"end_to_end": [LOWER, {"name": "msgs_per_op", "unit": "messages", "better": "lower"}]}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(contract))
    order = []

    def run_once(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        order.append((side, seed))
        return {
            "correct": True, "attempted": 4, "failed": 0, "exit": 0,
            "metrics": {
                "trial_wall_s": wall_of(side, seed),
                "msgs_per_op": msgs_of(side, seed),
                "sim_latency_p50": 3.0, "sim_latency_tail": 3.0,
            },
        }

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--a", str(tmp_path / "a"), "--b", str(tmp_path / "b"),
            "--workload", "scale-cold", "--pairs", "4", "--seed0", "50"]
    return argv, order


class TestMain:
    def test_alternates_order_on_fresh_seeds_and_reports_json(
        self, monkeypatch, tmp_path, capsys
    ):
        argv, order = _fake_runs(
            monkeypatch, tmp_path,
            wall_of=lambda side, seed: 1.0 if side == "a" else 0.8,
            msgs_of=lambda side, seed: 100.0 + seed,
        )
        assert ab_pairs.main(argv) == 0
        assert order == [("a", 50), ("b", 50), ("b", 51), ("a", 51),
                         ("a", 52), ("b", 52), ("b", 53), ("a", 53)]
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["seeds"] == [50, 51, 52, 53] and report["sim_metrics_equal"]
        assert report["problems"] == []
        row = report["metrics"]["trial_wall_s"]
        assert row["b_wins"] == 4 and row["gap_share"] == pytest.approx(-0.2)
        assert set(row) >= {"a", "b", "pairs", "a_iqr", "gap_exceeds_a_iqr"}

    def test_a_sim_metric_difference_fails_loudly(self, monkeypatch, tmp_path, capsys):
        argv, _ = _fake_runs(
            monkeypatch, tmp_path,
            wall_of=lambda side, seed: 1.0,
            msgs_of=lambda side, seed: 100.0 + (side == "b" and seed == 52),
        )
        assert ab_pairs.main(argv) == 1
        captured = capsys.readouterr()
        assert "seed 52: sim metric msgs_per_op differs" in captured.err
        report = json.loads(captured.out.strip().splitlines()[-1])
        assert not report["sim_metrics_equal"] and len(report["problems"]) == 1
