"""Adaptive Wilson-interval trial budgets: rules, driver, every surface.

The subsystem's hard guarantees, pinned on golden seeds:

* stopping rules are pure functions of the folded submission-order prefix,
  evaluated only at ``chunk`` checkpoints — so ``trials_used`` is
  **identical for every worker count**;
* an adaptive run's estimates are **bit-identical to the same-length
  prefix of the fixed-budget run** (seeds derive from the fixed-budget
  index layout, never from earlier cells' adaptive usage);
* degenerate Wilson intervals (zero trials, all-success/all-failure) are
  total and exact, so rules can consult them from trial zero.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.harness.adaptive import (
    DEFAULT_CHUNK,
    FixedBudget,
    STOP_BUDGET,
    STOP_MAX_TRIALS,
    STOP_TARGET_WIDTH,
    StoppingRule,
    TargetWidth,
    consume_adaptive,
)
from repro.harness.metrics import StreamingProportion, wilson_interval
from repro.harness.parallel import ExperimentEngine, TrialSpec, derive_seed
from repro.harness.registry import (
    CellAccumulator,
    MATRICES,
    MatrixCell,
    ScenarioMatrix,
    get_matrix,
    run_matrix,
    run_matrix_cell,
)

from .helpers import seeded_specs

#: Two cheap full-protocol cells at n=8; all-success agreement, so the
#: all-success Wilson width formula z²/(t+z²) predicts the stopping point.
GOLDEN_MATRIX = ScenarioMatrix(
    name="adaptive-golden",
    protocols=("probft",),
    adversaries=("none", "silent"),
    latencies=("constant",),
    n=8,
)


class _FakeProgress:
    def __init__(self) -> None:
        self.trials = 0
        self.widths = {"m": 1.0}

    def width(self, metric: str) -> float:
        return self.widths[metric]


class _RecordingRule(StoppingRule):
    """Fires at a threshold; records every checkpoint it was consulted at."""

    def __init__(self, stop_at=None):
        self.stop_at = stop_at
        self.consulted = []

    def decision(self, progress):
        self.consulted.append(progress.trials)
        if self.stop_at is not None and progress.trials >= self.stop_at:
            return "recorded-stop"
        return None


class TestRules:
    def test_fixed_budget(self):
        progress = _FakeProgress()
        rule = FixedBudget(10)
        progress.trials = 9
        assert rule.decision(progress) is None
        progress.trials = 10
        assert rule.decision(progress) == STOP_BUDGET
        with pytest.raises(ValueError, match="budget"):
            FixedBudget(0)

    def test_target_width_fires_on_narrow_interval(self):
        progress = _FakeProgress()
        rule = TargetWidth(0.1, metric="m")
        progress.trials = 5
        progress.widths["m"] = 0.5
        assert rule.decision(progress) is None
        progress.widths["m"] = 0.1
        assert rule.decision(progress) == STOP_TARGET_WIDTH

    def test_target_width_min_trials_gate(self):
        progress = _FakeProgress()
        rule = TargetWidth(0.5, metric="m", min_trials=20)
        progress.trials = 19
        progress.widths["m"] = 0.0
        assert rule.decision(progress) is None
        progress.trials = 20
        assert rule.decision(progress) == STOP_TARGET_WIDTH

    def test_target_width_max_trials_cap(self):
        progress = _FakeProgress()
        rule = TargetWidth(0.01, metric="m", max_trials=50)
        progress.trials = 49
        progress.widths["m"] = 0.9
        assert rule.decision(progress) is None
        progress.trials = 50
        assert rule.decision(progress) == STOP_MAX_TRIALS
        # Convergence at the cap still reports convergence, not surrender.
        progress.widths["m"] = 0.005
        assert rule.decision(progress) == STOP_TARGET_WIDTH

    def test_target_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            TargetWidth(0.0)
        with pytest.raises(ValueError, match="width"):
            TargetWidth(1.5)
        with pytest.raises(ValueError, match="min_trials"):
            TargetWidth(0.1, min_trials=0)
        with pytest.raises(ValueError, match="max_trials"):
            TargetWidth(0.1, min_trials=10, max_trials=5)


class TestConsumeAdaptive:
    def test_checkpoints_only_at_chunk_boundaries(self):
        progress = _FakeProgress()
        rule = _RecordingRule(stop_at=12)

        def fold(_value):
            progress.trials += 1

        used, reason = consume_adaptive(iter(range(100)), fold, progress, rule, chunk=4)
        assert used == 12
        assert reason == "recorded-stop"
        assert rule.consulted == [4, 8, 12]  # never between checkpoints

    def test_exhaustion_resolves_to_budget(self):
        progress = _FakeProgress()
        rule = _RecordingRule(stop_at=None)

        def fold(_value):
            progress.trials += 1

        used, reason = consume_adaptive(iter(range(5)), fold, progress, rule, chunk=4)
        assert used == 5
        assert reason == STOP_BUDGET
        # One checkpoint mid-stream, one final consult at exhaustion.
        assert rule.consulted == [4, 5]

    def test_stream_closed_on_early_stop(self):
        closed = []

        def stream():
            try:
                for i in range(100):
                    yield i
            finally:
                closed.append(True)

        progress = _FakeProgress()
        rule = _RecordingRule(stop_at=4)

        def fold(_value):
            progress.trials += 1

        used, _reason = consume_adaptive(stream(), fold, progress, rule, chunk=4)
        assert used == 4
        assert closed == [True]

    def test_chunk_validated(self):
        with pytest.raises(ValueError, match="chunk"):
            consume_adaptive(iter([]), lambda v: None, _FakeProgress(), FixedBudget(1), chunk=0)

    def test_trial_cap_checkpoint_off_the_chunk_grid(self):
        """A declared cap is honored to the trial even when it is not a
        multiple of chunk — the driver inserts an extra checkpoint at it
        instead of overshooting to the next chunk boundary."""
        progress = _FakeProgress()

        def fold(_value):
            progress.trials += 1

        used, reason = consume_adaptive(
            iter(range(1000)), fold, progress, FixedBudget(10), chunk=32
        )
        assert used == 10  # not 32
        assert reason == STOP_BUDGET

        progress = _FakeProgress()
        progress.widths["m"] = 0.9  # never converges
        used, reason = consume_adaptive(
            iter(range(1000)),
            fold,
            progress,
            TargetWidth(0.001, metric="m", max_trials=40),
            chunk=32,
        )
        assert used == 40  # not 64
        assert reason == STOP_MAX_TRIALS

    def test_trial_cap(self):
        assert FixedBudget(10).trial_cap() == 10
        assert TargetWidth(0.1, max_trials=40).trial_cap() == 40
        assert TargetWidth(0.1).trial_cap() is None

    def test_uncapped_custom_rule_keeps_chunk_grid(self):
        """Rules without a declared cap keep the pure chunk schedule (the
        default trial_cap() is None)."""
        progress = _FakeProgress()
        rule = _RecordingRule(stop_at=5)

        def fold(_value):
            progress.trials += 1

        used, reason = consume_adaptive(iter(range(100)), fold, progress, rule, chunk=4)
        assert used == 8  # first chunk boundary at/after the threshold
        assert rule.consulted == [4, 8]


class TestDegenerateIntervals:
    """Zero-trial and all-success/all-failure cells are total and exact."""

    def test_zero_trials_is_the_unit_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert StreamingProportion().interval == (0.0, 1.0)
        assert StreamingProportion().interval_width == 1.0

    def test_invalid_counts_still_raise(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)  # successes out of range for 0 trials
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(3, -3)

    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 1000])
    def test_all_success_upper_endpoint_exact(self, trials):
        low, high = wilson_interval(trials, trials)
        assert high == 1.0  # pinned exactly, not within-epsilon
        assert 0.0 < low < 1.0

    @pytest.mark.parametrize("trials", [1, 2, 7, 50, 1000])
    def test_all_failure_lower_endpoint_exact(self, trials):
        low, high = wilson_interval(0, trials)
        assert low == 0.0
        assert 0.0 < high < 1.0

    def test_all_success_width_formula(self):
        """Width after t all-success trials is z²/(t+z²) — the budget
        heuristic the docs quote."""
        z = 1.96
        for trials in (8, 16, 73):
            low, high = wilson_interval(trials, trials)
            assert (high - low) == pytest.approx(z * z / (trials + z * z), rel=1e-9)

    def test_cell_accumulator_width_from_zero(self):
        cell = GOLDEN_MATRIX.cells()[0]
        accumulator = CellAccumulator(cell)
        assert accumulator.width("agreement_rate") == 1.0
        with pytest.raises(KeyError, match="agreement_rate"):
            accumulator.width("decide_rate")


def _fixed_prefix_summary(cell, base, used, master_seed, max_time=5000.0):
    """The fixed-budget run's first ``used`` trials of one cell, re-folded."""
    accumulator = CellAccumulator(cell)
    for j in range(used):
        index = base + j
        accumulator.add(
            run_matrix_cell(
                TrialSpec(index, derive_seed(master_seed, index), (cell, max_time))
            )
        )
    return accumulator.summary()


class TestAdaptiveMatrix:
    CAP = 24
    SEED = 11
    WIDTH = 0.35  # all-success: stops once z²/(t+z²) <= 0.35, i.e. t >= 8
    CHUNK = 6

    def _adaptive(self, **kwargs):
        return run_matrix(
            GOLDEN_MATRIX,
            trials=self.CAP,
            master_seed=self.SEED,
            target_width=self.WIDTH,
            chunk=self.CHUNK,
            **kwargs,
        )

    def test_stops_early_with_reason(self):
        report = self._adaptive()
        assert report.adaptive
        assert report.target_width == self.WIDTH and report.chunk == self.CHUNK
        for row in report.rows:
            assert row["trials"] == self.CAP
            assert row["trials_used"] == 12  # first multiple of 6 with t >= 8
            assert row["stop_reason"] == STOP_TARGET_WIDTH
            assert row["interval_width"] <= self.WIDTH

    def test_adaptive_is_bit_identical_prefix_of_fixed_run(self):
        """The acceptance criterion: every adaptive cell's estimates equal
        the same-length prefix of the fixed-budget run — whose seeds use the
        *cap* layout, so cell k's base is k*CAP regardless of usage."""
        report = self._adaptive()
        for k, (cell, row) in enumerate(zip(GOLDEN_MATRIX.cells(), report.rows)):
            used = row["trials_used"]
            assert used <= self.CAP
            expected = _fixed_prefix_summary(cell, k * self.CAP, used, self.SEED)
            for key, value in expected.items():
                if key == "trials":
                    assert row["trials_used"] == value
                else:
                    assert row[key] == value, key  # exact, not approx

    def test_identical_across_all_backends(self):
        reference = self._adaptive()
        for workers in (1, 2):
            got = self._adaptive(workers=workers)
            assert got.rows == reference.rows, workers  # incl. trials_used

    def test_rule_never_firing_equals_fixed_run(self):
        """A width no cell can reach makes the adaptive run spend the full
        budget — and match the fixed run row-for-row (modulo stop columns)."""
        fixed = run_matrix(GOLDEN_MATRIX, trials=8, master_seed=3)
        adaptive = run_matrix(
            GOLDEN_MATRIX,
            trials=8,
            master_seed=3,
            target_width=0.001,
            chunk=4,
        )
        for frow, arow in zip(fixed.rows, adaptive.rows):
            assert arow["trials_used"] == 8
            assert arow["stop_reason"] == STOP_MAX_TRIALS
            for key, value in frow.items():
                assert arow[key] == value, key

    def test_explicit_stopping_rule(self):
        report = run_matrix(
            GOLDEN_MATRIX,
            trials=self.CAP,
            master_seed=self.SEED,
            stopping=FixedBudget(6),
            chunk=6,
        )
        for row in report.rows:
            assert row["trials_used"] == 6
            assert row["stop_reason"] == STOP_BUDGET

    def test_matrix_declared_widths(self):
        matrix = ScenarioMatrix(
            name="declared",
            protocols=("probft",),
            adversaries=("none", "silent"),
            latencies=("constant",),
            n=8,
            budget=24,
            target_widths=(("silent", 0.35),),
        )
        assert matrix.adaptive
        cells = {c.adversary: c for c in matrix.cells()}
        assert matrix.cell_target_width(cells["silent"]) == 0.35
        assert matrix.cell_target_width(cells["none"]) is None
        report = run_matrix(matrix, master_seed=self.SEED, chunk=6)
        by_adversary = {row["adversary"]: row for row in report.rows}
        # The width-less cell runs its whole budget (FixedBudget fallback);
        # the targeted cell stops early.
        assert by_adversary["none"]["trials_used"] == 24
        assert by_adversary["none"]["stop_reason"] == STOP_BUDGET
        assert by_adversary["silent"]["trials_used"] == 12
        assert by_adversary["silent"]["stop_reason"] == STOP_TARGET_WIDTH

    #: An adaptive cell (stops at 12 of 24) followed by a fixed one, so the
    #: shared stream crosses a stopped cell into a running one.
    MIXED = ScenarioMatrix(
        name="mixed",
        protocols=("probft",),
        adversaries=("silent", "none"),
        latencies=("constant",),
        n=8,
        budget=CAP,
        target_widths=(("silent", WIDTH),),
    )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_stream_crosses_cells(self, monkeypatch, workers):
        """Every cell shares one engine stream: a stopped cell's specs stop
        being generated, its in-flight results are dropped — never folded
        into the next cell — and every row is still the fixed run's
        same-length prefix."""
        folded = []
        add = CellAccumulator.add

        def spy_add(accumulator, row):
            folded.append((accumulator.cell.adversary, row["adversary"]))
            add(accumulator, row)

        yielded = []
        stream = ExperimentEngine.stream

        def counting_stream(engine, fn, specs, window=None):
            for row in stream(engine, fn, specs, window):
                yielded.append(row["adversary"])
                yield row

        monkeypatch.setattr(CellAccumulator, "add", spy_add)
        monkeypatch.setattr(ExperimentEngine, "stream", counting_stream)
        report = run_matrix(
            self.MIXED, master_seed=self.SEED, chunk=self.CHUNK, workers=workers
        )
        silent, none = report.rows
        assert (silent["trials_used"], silent["stop_reason"]) == (
            12,
            STOP_TARGET_WIDTH,
        )
        assert (none["trials_used"], none["stop_reason"]) == (24, STOP_BUDGET)
        assert len(folded) == 12 + 24
        assert all(cell == row for cell, row in folded)
        # Serial draws nothing ahead; the pool had silent trials in flight
        # when the cell stopped, and dropped them.
        dropped = yielded.count("silent") - 12
        assert dropped == 0 if workers == 0 else dropped > 0
        for k, (cell, row) in enumerate(zip(self.MIXED.cells(), report.rows)):
            expected = _fixed_prefix_summary(
                cell, k * self.CAP, row["trials_used"], self.SEED
            )
            for key, value in expected.items():
                if key != "trials":
                    assert row[key] == value, (cell.label, key)

    def test_mixed_rows_identical_across_workers(self):
        reference = run_matrix(self.MIXED, master_seed=self.SEED, chunk=self.CHUNK)
        pooled = run_matrix(
            self.MIXED, master_seed=self.SEED, chunk=self.CHUNK, workers=2
        )
        assert pooled.rows == reference.rows

    def test_with_size_carries_widths(self):
        matrix = MATRICES["adaptive-demo"].with_size(10)
        assert matrix.target_width == MATRICES["adaptive-demo"].target_width

    def test_adaptive_demo_matrix_registered(self):
        matrix = get_matrix("adaptive-demo")
        assert matrix.adaptive
        assert matrix.budget == 64

    def test_validation(self):
        with pytest.raises(ValueError, match="not both"):
            run_matrix(
                GOLDEN_MATRIX,
                trials=4,
                target_width=0.2,
                stopping=FixedBudget(2),
            )
        with pytest.raises(ValueError, match="target_width"):
            run_matrix(GOLDEN_MATRIX, trials=4, target_width=1.5)
        with pytest.raises(ValueError, match="chunk"):
            run_matrix(GOLDEN_MATRIX, trials=4, target_width=0.2, chunk=0)
        with pytest.raises(ValueError, match="target_width"):
            ScenarioMatrix(name="bad", target_width=0.0)
        with pytest.raises(ValueError, match="target width"):
            ScenarioMatrix(name="bad", target_widths=(("silent", 2.0),))

    def test_fixed_runs_unchanged(self):
        """No adaptive input → no adaptive columns, classic headers."""
        report = run_matrix(GOLDEN_MATRIX, trials=2, master_seed=1)
        assert not report.adaptive
        assert report.chunk is None
        assert "trials_used" not in report.rows[0]
        assert "trials_used" not in report.headers
        for row, rendered in zip(report.rows, report.table_rows()):
            assert rendered == [row[h] for h in report.headers]

    def test_adaptive_headers_roundtrip(self):
        report = self._adaptive()
        assert "trials_used" in report.headers
        assert "stop_reason" in report.headers
        for row, rendered in zip(report.rows, report.table_rows()):
            assert rendered == [row[h] for h in report.headers]


#: A cell with random delays, driven by hand below: one engine stream, one
#: accumulator, one rule — the loop every trial set runs.
STREAM_CELL = MatrixCell("probft", "none", "exponential", n=8, f=2)


def _stream_cell(rule, cap=64, chunk=4, workers=0, window=None, seed=9):
    """``(rows, trials_used, reason)`` of one adaptive stream of STREAM_CELL."""
    accumulator = CellAccumulator(STREAM_CELL)
    rows = []

    def fold(row):
        rows.append(row)
        accumulator.add(row)

    specs = seeded_specs(cap, master_seed=seed, params=(STREAM_CELL, 5000.0))
    with ExperimentEngine(workers=workers) as engine:
        used, reason = consume_adaptive(
            engine.stream(run_matrix_cell, specs, window=window or chunk),
            fold,
            accumulator,
            rule,
            chunk,
        )
    return rows, used, reason


def _fixed_rows(trials, seed=9):
    specs = seeded_specs(trials, master_seed=seed, params=(STREAM_CELL, 5000.0))
    return ExperimentEngine(workers=0).map(run_matrix_cell, specs)


class TestAdaptiveStream:
    def test_stopping_prefix_identity(self):
        rows, used, reason = _stream_cell(TargetWidth(0.35, max_trials=64))
        assert used < 64
        assert reason == STOP_TARGET_WIDTH
        assert rows == _fixed_rows(used)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_used_identical_across_workers(self, workers):
        reference = _stream_cell(TargetWidth(0.35, max_trials=64))
        assert _stream_cell(TargetWidth(0.35, max_trials=64), workers=workers) == reference

    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_window_is_irrelevant(self, window):
        reference = _stream_cell(TargetWidth(0.35, max_trials=64))
        got = _stream_cell(TargetWidth(0.35, max_trials=64), workers=2, window=window)
        assert got == reference

    def test_unknown_stopping_metric_raises_with_choices(self):
        with pytest.raises(KeyError, match="agreement_rate"):
            _stream_cell(TargetWidth(0.1, metric="nope"))

    def test_fixed_budget_runs_the_budget(self):
        rows, used, reason = _stream_cell(FixedBudget(6), cap=64)
        assert (used, reason) == (6, STOP_BUDGET)
        assert rows == _fixed_rows(6)

    def test_max_trials_never_overshot(self):
        """A cap off the chunk grid bounds the spend to the trial, and the
        capped run is still a bit-identical fixed-run prefix."""
        rule = TargetWidth(0.001, max_trials=10)
        rows, used, reason = _stream_cell(rule, cap=64, chunk=8)
        assert (used, reason) == (10, STOP_MAX_TRIALS)  # not 16
        assert rows == _fixed_rows(10)


class TestAdaptiveCli:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr()

    def test_target_width_json_report(self, capsys):
        code, captured = self.run_cli(
            capsys,
            "sweep",
            "--trials",
            "24",
            "--target-width",
            "0.35",
            "--chunk",
            "6",
            "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["target_width"] == 0.35
        assert payload["chunk"] == 6
        for row in payload["rows"]:
            assert row["trials_used"] <= payload["trials"]
            assert row["stop_reason"] == STOP_TARGET_WIDTH
            assert row["interval_width"] <= 0.35
            assert not isinstance(row["interval_width"], str)

    def test_fixed_json_report_has_no_adaptive_keys(self, capsys):
        code, captured = self.run_cli(
            capsys, "sweep", "--trials", "2", "--json"
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert "target_width" not in payload
        assert "trials_used" not in payload["rows"][0]
        assert "interval_width" in payload["rows"][0]

    def test_invalid_target_width_rejected(self, capsys):
        code, captured = self.run_cli(
            capsys, "sweep", "--target-width", "1.5"
        )
        assert code == 2
        assert "--target-width" in captured.err

    def test_invalid_chunk_rejected(self, capsys):
        code, captured = self.run_cli(
            capsys, "sweep", "--target-width", "0.2", "--chunk", "0"
        )
        assert code == 2
        assert "--chunk" in captured.err

    def test_help_epilog_documents_adaptive(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--help"])
        captured = capsys.readouterr()
        assert "--target-width" in captured.out
        assert "adaptive" in captured.out
