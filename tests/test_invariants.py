"""Tests for the execution auditor."""

import pytest

from repro.core.invariants import AuditReport, audit_deployment
from repro.types import Decision

from .helpers import cell_deployment


class TestAuditReport:
    def test_empty_report_ok(self):
        report = AuditReport()
        assert report.ok
        report.add("problem")
        assert not report.ok
        assert "problem" in str(report)


class TestAuditHappyRuns:
    def test_happy_run_passes(self):
        dep = cell_deployment("probft", "none", 12, 2)
        report = audit_deployment(dep)
        assert report.ok, str(report)
        assert report.checks_run > 12  # at least one check per replica

    def test_view_change_run_passes(self):
        dep = cell_deployment("probft", "silent", 10, 2)
        report = audit_deployment(dep)
        assert report.ok, str(report)

    def test_equivocation_run_passes(self):
        dep = cell_deployment("probft", "equivocation", 16, 3)
        report = audit_deployment(dep)
        assert report.ok, str(report)

    def test_flooding_run_passes(self):
        dep = cell_deployment("probft", "flooding", 10, 2)
        report = audit_deployment(dep)
        assert report.ok, str(report)


class TestAuditCatchesCorruption:
    """Corrupt a finished run's state and check the auditor notices."""

    @pytest.fixture
    def finished(self):
        return cell_deployment("probft", "none", 12, 2)

    def test_detects_forged_disagreement(self, finished):
        victim = finished.decisions[3]
        finished.decisions[3] = Decision(
            replica=3, value=b"FORGED", view=victim.view, time=victim.time
        )
        report = audit_deployment(finished)
        assert not report.ok
        assert any("agreement" in v for v in report.violations)

    def test_detects_record_mismatch(self, finished):
        del finished.decisions[5]
        report = audit_deployment(finished)
        assert not report.ok
        assert any("mismatch" in v for v in report.violations)

    def test_detects_forged_prepared_state(self, finished):
        replica = finished.replicas[4]
        replica._prepared_value = b"FORGED"  # cert no longer matches
        report = audit_deployment(finished)
        assert not report.ok
        assert any("certificate" in v for v in report.violations)

    def test_detects_misattributed_decision(self, finished):
        d = finished.decisions[2]
        finished.decisions[2] = Decision(
            replica=9, value=d.value, view=d.view, time=d.time
        )
        report = audit_deployment(finished)
        assert not report.ok
