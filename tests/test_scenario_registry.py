"""Tests for the scenario matrix."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.harness.parallel import TrialSpec, derive_seed
from repro.harness.registry import (
    ADVERSARIES,
    LATENCIES,
    MATRICES,
    PROTOCOLS,
    MatrixCell,
    ScenarioMatrix,
    get_matrix,
    list_matrices,
    run_matrix,
    run_matrix_cell,
)

from .helpers import cell_deployment


class TestScenarioBuilders:
    @pytest.mark.parametrize(
        "adversary,latency",
        [
            ("none", "constant"),
            ("silent", "constant"),
            ("crash", "constant"),
            ("none", "pre-gst-chaos"),
            ("equivocation", "constant"),
            ("flooding", "constant"),
        ],
        ids=[
            "happy",
            "silent-leader",
            "crash",
            "pre-gst-chaos",
            "equivocation",
            "flooding",
        ],
    )
    def test_every_scenario_builds_and_decides(self, adversary, latency):
        """Each canonical ProBFT scenario cell reaches a correct decision at
        n=8, where every sample is everyone."""
        deployment = cell_deployment("probft", adversary, 8, 1, seed=1, latency=latency)
        assert deployment.all_correct_decided()
        assert deployment.agreement_ok


class TestMatrixExpansion:
    def test_full_cross_product_enumerated(self):
        matrix = get_matrix("full")
        cells = matrix.cells(supported_only=False)
        assert len(cells) == len(PROTOCOLS) * len(ADVERSARIES) * len(LATENCIES)
        combos = {(c.protocol, c.adversary, c.latency) for c in cells}
        assert combos == set(itertools.product(PROTOCOLS, ADVERSARIES, LATENCIES))

    def test_no_cell_is_unsupported(self):
        """Every protocol × adversary combination has a registered behavior
        (the PBFT/HotStuff forgery analogues closed the last gaps)."""
        matrix = get_matrix("full")
        cells = matrix.cells(supported_only=False)
        assert all(c.supported for c in cells)
        assert matrix.cells(supported_only=True) == cells

    def test_unknown_axis_value_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix axis"):
            ScenarioMatrix(name="bad", protocols=("paxos",))

    def test_with_size_changes_only_size(self):
        full = get_matrix("full")
        small = full.with_size(8)
        assert small.n == 8
        assert small.protocols == PROTOCOLS
        assert small.resolved_f() == 2  # (8-1)//3
        # Every other field is carried; a pinned f only while n stays.
        assert small == dataclasses.replace(full, n=8, f=None)
        pinned = ScenarioMatrix(name="pinned", n=10, f=1, track_bytes=True)
        assert pinned.with_size(10) == pinned
        assert pinned.with_size(13) == dataclasses.replace(pinned, n=13, f=None)
        assert pinned.with_size(13, f=2).f == 2

    def test_named_matrices_lookup(self):
        assert set(list_matrices()) == set(MATRICES)
        with pytest.raises(KeyError, match="unknown matrix 'x'"):
            get_matrix("x")


class TestMatrixExecution:
    def test_unsupported_cell_refuses_to_run(self):
        """A cell whose adversary has no registered behavior cannot run."""
        cell = MatrixCell(
            protocol="pbft", adversary="time-travel", latency="constant", n=8, f=2
        )
        assert not cell.supported
        spec = TrialSpec(index=0, seed=derive_seed(0, 0), params=(cell, 100.0))
        with pytest.raises(ValueError, match="unsupported"):
            run_matrix_cell(spec)

    def test_every_supported_cell_decides_with_agreement(self):
        """All 84 protocol×adversary×latency combos run green — including
        equivocation/flooding against the deterministic baselines."""
        report = run_matrix(get_matrix("full").with_size(8), trials=1, master_seed=3)
        assert len(report.rows) == 3 * 7 * 4
        assert report.all_agreement_ok
        for row in report.rows:
            assert row["decide_rate"] == 1.0

    def test_report_shape_matches_headers(self):
        report = run_matrix(get_matrix("smoke"), trials=2, master_seed=1)
        assert report.trials == 2
        for row, rendered in zip(report.rows, report.table_rows()):
            assert rendered == [row[h] for h in report.headers]

    def test_serial_and_parallel_reports_identical(self):
        matrix = get_matrix("smoke")
        serial = run_matrix(matrix, trials=3, master_seed=9, workers=0)
        pooled = run_matrix(matrix, trials=3, master_seed=9, workers=2)
        assert serial.rows == pooled.rows

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            run_matrix(get_matrix("smoke"), trials=0)


class TestNewAxes:
    """The targeted-scheduler adversary and exponential-latency cells."""

    def test_targeted_scheduler_supported_everywhere(self):
        for protocol in PROTOCOLS:
            cell = MatrixCell(
                protocol=protocol,
                adversary="targeted-scheduler",
                latency="exponential",
                n=8,
                f=2,
            )
            assert cell.supported

    def test_targeted_scheduler_cell_decides_after_gst(self):
        cell = MatrixCell(
            protocol="probft",
            adversary="targeted-scheduler",
            latency="constant",
            n=8,
            f=2,
        )
        spec = TrialSpec(index=0, seed=derive_seed(5, 0), params=(cell, 5000.0))
        row = run_matrix_cell(spec)
        assert row["all_decided"] and row["agreement_ok"]
        # Victims are starved until GST=30; nobody can finish before it.
        assert row["last_decision_time"] > 30.0

    def test_exponential_cells_slower_than_constant(self):
        rows = {}
        for latency in ("constant", "exponential"):
            cell = MatrixCell(
                protocol="probft", adversary="none", latency=latency, n=8, f=2
            )
            spec = TrialSpec(index=0, seed=derive_seed(7, 0), params=(cell, 5000.0))
            rows[latency] = run_matrix_cell(spec)
        assert rows["constant"]["last_decision_time"] == 3.0
        assert rows["exponential"]["last_decision_time"] != 3.0


class TestTrialBudgets:
    def test_label_beats_adversary_beats_default(self):
        matrix = ScenarioMatrix(
            name="b",
            protocols=("probft",),
            adversaries=("none", "silent"),
            latencies=("constant",),
            n=8,
            budget=2,
            budgets=(("silent", 5), ("probft/silent/constant", 9)),
        )
        cells = {c.adversary: c for c in matrix.cells()}
        assert matrix.cell_trials(cells["silent"]) == 9
        assert matrix.cell_trials(cells["none"]) == 2
        assert matrix.total_trials() == 11

    def test_fallback_when_no_budget(self):
        matrix = get_matrix("smoke")
        for cell in matrix.cells():
            assert matrix.cell_trials(cell) == 1
            assert matrix.cell_trials(cell, fallback=7) == 7

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            ScenarioMatrix(name="bad", budget=0)
        with pytest.raises(ValueError, match="budget"):
            ScenarioMatrix(name="bad", budgets=(("silent", 0),))

    def test_run_matrix_applies_budgets(self):
        matrix = ScenarioMatrix(
            name="budgeted",
            protocols=("probft",),
            adversaries=("none", "silent"),
            latencies=("constant",),
            n=8,
            budgets=(("silent", 3),),
        )
        report = run_matrix(matrix, master_seed=2)
        assert report.trials is None
        by_adversary = {row["adversary"]: row for row in report.rows}
        assert by_adversary["none"]["trials"] == 1
        assert by_adversary["silent"]["trials"] == 3

    def test_uniform_override_wins(self):
        matrix = MATRICES["schedulers"]
        report = run_matrix(matrix.with_size(8), trials=1, master_seed=2)
        assert all(row["trials"] == 1 for row in report.rows)
        assert report.trials == 1
