"""Golden seed-stability regressions.

These pin exact per-seed outcomes — the engine's seed derivation, one full
ProBFT run, and one matrix cell's trial set — so that refactors of the
experiment engine or the deployment wiring cannot silently reorder RNG
streams.  If one of these fails after an intentional RNG change, re-record
the golden values *in the same commit* and say so in the commit message.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig
from repro.harness.parallel import ExperimentEngine, derive_seed
from repro.harness.registry import MatrixCell, run_matrix_cell
from repro.harness.trial import DeploymentSpec, run_trial

from .helpers import seeded_specs

#: The optimal-split attack at the Figure-5 protocol cell's size.
SPLIT_CELL = MatrixCell("probft", "equivocation", "constant", n=20, f=4)


class TestSeedDerivationGoldens:
    """The engine's counter-based splitter is a frozen function."""

    def test_first_child_seeds_of_master_zero(self):
        assert [derive_seed(0, i) for i in range(4)] == [
            12035550249420947055,
            12935080325729570654,
            7141179953334974231,
            12108695660851890438,
        ]

    def test_nonzero_master(self):
        assert derive_seed(123, 0) == 16163597885971035396


class TestProtocolRunGolden:
    """One small ProBFT run, fully pinned: decisions, views, traffic."""

    def test_probft_n8_seed42(self):
        result = run_trial(
            DeploymentSpec("probft", ProtocolConfig(n=8, f=1), seed=42, max_time=5000)
        )
        assert result.decided == 8
        assert result.all_decided and result.agreement_ok
        assert result.decided_values == (b"value-0",)
        assert result.decision_views == (1,)
        assert result.max_view == 1
        assert result.last_decision_time == 3.0
        assert result.total_messages == 119
        assert result.messages_by_type == {
            "Commit": 56,
            "Prepare": 56,
            "Propose": 7,
        }


class TestCellGoldens:
    """Sixteen trials of the equivocation cell are exact integers under a
    fixed master seed, for every worker count."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_equivocation_cell_golden_counts(self, workers):
        specs = seeded_specs(16, master_seed=123, params=(SPLIT_CELL, 5000.0))
        with ExperimentEngine(workers=workers) as engine:
            rows = engine.map(run_matrix_cell, specs)
        assert [row["max_view"] for row in rows] == [2] * 12 + [3, 2, 3, 2]
        assert sum(row["total_messages"] for row in rows) == 32665
        assert sum(row["decided"] for row in rows) == 16 * 16
        assert all(row["agreement_ok"] for row in rows)
