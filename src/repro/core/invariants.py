"""Execution auditing: validate a finished run against global invariants.

The protocol's safety argument rests on checkable artefacts — decisions are
backed by commit quorums over leader-signed statements, prepared states are
backed by certificates, NewLeader justifications are deterministic quorums.
:class:`ExecutionAuditor` re-verifies all of it *after* a run, independently
of the replica code paths that produced it.  Tests use the auditor as an
oracle; it is also handy when developing new adversary behaviours (a passing
attack run that fails the audit means the attack found a protocol bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..quorum.certificates import validate_prepared_certificate
from .leader import leader_of
from .protocol import ProBFTDeployment
from .replica import ProBFTReplica


@dataclass
class AuditReport:
    """Outcome of an execution audit."""

    violations: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else "VIOLATIONS"
        lines = [f"AuditReport: {status} ({self.checks_run} checks)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


class ExecutionAuditor:
    """Audits a completed :class:`ProBFTDeployment`."""

    def __init__(self, deployment: ProBFTDeployment) -> None:
        self._deployment = deployment

    def audit(self) -> AuditReport:
        report = AuditReport()
        self._check_agreement(report)
        self._check_decisions_are_recorded_consistently(report)
        self._check_prepared_certificates(report)
        self._check_decision_views_have_leaders(report)
        return report

    # ------------------------------------------------------------------
    def _correct_replicas(self):
        return self._deployment.correct_replicas()

    def _check_agreement(self, report: AuditReport) -> None:
        """No two correct replicas decided different values."""
        report.checks_run += 1
        values = self._deployment.decided_values()
        if len(values) > 1:
            report.add(f"agreement violated: {sorted(values)!r}")

    def _check_decisions_are_recorded_consistently(
        self, report: AuditReport
    ) -> None:
        """The deployment's decision record matches replica-local state."""
        for replica_id, replica in self._correct_replicas().items():
            report.checks_run += 1
            recorded = self._deployment.decisions.get(replica_id)
            local = replica.decision
            if (recorded is None) != (local is None):
                report.add(
                    f"replica {replica_id}: decision record mismatch "
                    f"(deployment={recorded}, local={local})"
                )
            elif recorded is not None and recorded != local:
                report.add(
                    f"replica {replica_id}: decision content mismatch"
                )

    def _check_prepared_certificates(self, report: AuditReport) -> None:
        """Every correct replica's prepared state is certificate-backed."""
        config = self._deployment.config
        crypto = self._deployment.crypto
        for replica_id, replica in self._correct_replicas().items():
            if replica.prepared_view == 0:
                continue
            report.checks_run += 1
            valid = validate_prepared_certificate(
                cert=replica._cert,
                view=replica.prepared_view,
                value=replica.prepared_value,
                holder=replica_id,
                config=config,
                signatures=crypto.signatures,
                vrf=crypto.vrf,
            )
            if not valid:
                report.add(
                    f"replica {replica_id}: prepared state "
                    f"(view={replica.prepared_view}) lacks a valid certificate"
                )

    def _check_decision_views_have_leaders(self, report: AuditReport) -> None:
        """Decision metadata is internally consistent."""
        config = self._deployment.config
        for replica_id, decision in self._deployment.decisions.items():
            if replica_id not in self._deployment.correct_ids:
                continue
            report.checks_run += 1
            if decision.view < 1:
                report.add(f"replica {replica_id}: decision in view 0")
                continue
            leader = leader_of(decision.view, config)
            if not 0 <= leader < config.n:
                report.add(
                    f"replica {replica_id}: view {decision.view} has no leader"
                )
            if decision.replica != replica_id:
                report.add(
                    f"replica {replica_id}: decision attributed to "
                    f"{decision.replica}"
                )


def audit_deployment(deployment: ProBFTDeployment) -> AuditReport:
    """Convenience wrapper: audit and return the report."""
    return ExecutionAuditor(deployment).audit()
