"""Matrix-coverage audit: no unsupported cells, and every named matrix runs.

The cross-protocol comparison only means something if every protocol faces
the same adversaries, so this suite pins two completeness properties:

* the full protocols × adversaries × latencies cross product resolves in
  the Byzantine behavior registry — ``cells(supported_only=False)`` yields
  **zero** unsupported cells;
* every named matrix executes: one smoke trial per (deduplicated) cell at
  n=8 reaches agreement.
"""

from __future__ import annotations

import itertools

import pytest

from repro.adversary.registry import (
    behavior_for,
    behavior_supported,
    byzantine_map_for,
    list_behaviors,
)
from repro.config import ProtocolConfig
from repro.harness.parallel import TrialSpec, derive_seed
from repro.harness.registry import (
    ADVERSARIES,
    LATENCIES,
    MATRICES,
    PROTOCOLS,
    ScenarioMatrix,
    run_matrix_cell,
)

#: One smoke trial per unique cell; small n keeps the audit in seconds.
_SMOKE_N = 8
_SMOKE_SEED = 11
_SMOKE_MAX_TIME = 5000.0


def _unique_smoke_cells():
    """Every named matrix's cells at n=8, deduplicated across matrices."""
    seen = {}
    for name in sorted(MATRICES):
        for cell in MATRICES[name].with_size(_SMOKE_N).cells(
            supported_only=False
        ):
            key = (cell.protocol, cell.adversary, cell.latency, cell.track_bytes)
            seen.setdefault(key, (name, cell))
    return list(seen.values())


class TestBehaviorRegistryCompleteness:
    def test_full_cross_product_has_no_unsupported_cells(self):
        matrix = ScenarioMatrix(
            name="audit",
            protocols=PROTOCOLS,
            adversaries=ADVERSARIES,
            latencies=LATENCIES,
        )
        cells = matrix.cells(supported_only=False)
        assert len(cells) == len(PROTOCOLS) * len(ADVERSARIES) * len(LATENCIES)
        unsupported = [c.label for c in cells if not c.supported]
        assert unsupported == []
        assert matrix.cells(supported_only=True) == cells

    def test_every_adversary_resolves_for_every_protocol(self):
        for protocol, adversary in itertools.product(PROTOCOLS, ADVERSARIES):
            assert behavior_supported(adversary, protocol)
            behavior = behavior_for(adversary, protocol)
            assert behavior.adversary == adversary
            assert behavior.protocol in (None, protocol)

    def test_byzantine_maps_respect_fault_threshold(self):
        config = ProtocolConfig(n=10, f=3)
        for protocol, adversary in itertools.product(PROTOCOLS, ADVERSARIES):
            byzantine = byzantine_map_for(adversary, protocol, config)
            assert len(byzantine) <= config.f, (protocol, adversary)
            assert all(0 <= r < config.n for r in byzantine)

    def test_forgery_behaviors_speak_each_dialect(self):
        """Equivocation, the lone equivocating leader and flooding are one
        entry for the protocols on the ProBFT skeleton — the seats read the
        dialect from the protocol's replica class — and HotStuff's own entry
        for HotStuff."""
        for adversary in ("equivocation", "equivocating-leader", "flooding"):
            shared = behavior_for(adversary, "probft")
            assert shared.protocol is None
            assert behavior_for(adversary, "pbft") is shared
            assert behavior_for(adversary, "hotstuff").protocol == "hotstuff"

    def test_a_registered_adversary_joins_any_matrix(self, monkeypatch):
        """``register_behavior`` is the extension point the matrix reads:
        a new name is a valid axis value, and ``adversary-complete`` audits
        it."""
        from repro.adversary import registry
        from repro.adversary.behaviors import silent_factory
        from repro.harness.registry import run_matrix

        monkeypatch.setattr(registry, "_BEHAVIORS", dict(registry._BEHAVIORS))
        registry.register_behavior(
            "silent-last", lambda protocol, config: {config.n - 1: silent_factory()}
        )
        matrix = ScenarioMatrix(
            name="custom",
            protocols=("probft", "pbft"),
            adversaries=("silent-last",),
            latencies=("constant",),
            n=8,
        )
        report = run_matrix(matrix, trials=1)
        assert [row["adversary"] for row in report.rows] == ["silent-last"] * 2
        assert report.all_agreement_ok
        complete = MATRICES["adversary-complete"].cells()
        assert "silent-last" in {cell.adversary for cell in complete}
        with pytest.raises(ValueError, match="unknown matrix axis"):
            ScenarioMatrix(name="typo", adversaries=("silent-lst",))

    def test_unknown_combination_reported_clearly(self):
        assert not behavior_supported("time-travel", "pbft")
        with pytest.raises(KeyError, match="time-travel"):
            behavior_for("time-travel", "pbft")

    def test_behavior_listing_covers_canonical_adversaries(self):
        adversaries = {a for a, _p in list_behaviors()}
        assert set(ADVERSARIES) <= adversaries


class TestNamedMatrixSmoke:
    def test_named_matrices_have_no_unsupported_cells(self):
        for name, matrix in MATRICES.items():
            cells = matrix.cells(supported_only=False)
            assert all(c.supported for c in cells), name

    @pytest.mark.parametrize(
        "matrix_name,cell",
        [
            pytest.param(name, cell, id=f"{name}:{cell.label}")
            for name, cell in _unique_smoke_cells()
        ],
    )
    def test_one_smoke_trial_per_cell(self, matrix_name, cell):
        """Each unique named-matrix cell runs one seeded trial green."""
        spec = TrialSpec(
            index=0,
            seed=derive_seed(_SMOKE_SEED, 0),
            params=(cell, _SMOKE_MAX_TIME),
        )
        row = run_matrix_cell(spec)
        assert row["agreement_ok"], cell.label
        assert row["decided"] == row["n_correct"], cell.label
        if cell.track_bytes:
            assert row["total_bytes"] > 0
        else:
            assert row["total_bytes"] == 0
