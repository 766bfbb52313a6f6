"""TAB-C — the §3.3 complexity comparison, verified by measurement.

Paper claims (§3.3):

* ProBFT message complexity O(n√n): NewLeader O(n) + Propose O(n) +
  Prepare O(n√n) + Commit O(n√n);
* ProBFT best-case (view 1, no NewLeader) message count Ω(n√n), versus
  PBFT's Ω(n²);
* communication (bit) complexity O(n²√n) only on view change, because the
  new leader ships a deterministic quorum of NewLeader messages each
  carrying a probabilistic-quorum-sized certificate.

We verify the measurable parts: empirical growth exponents from simulation
counts, and the per-phase message split.
"""

import itertools
import math

import pytest

from repro.analysis import messages as M
from repro.config import ProtocolConfig
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.tables import render_table
from repro.harness.trial import DeploymentSpec, run_trial


def growth_exponent(n1, c1, n2, c2) -> float:
    """Empirical alpha in counts ~ n^alpha."""
    return math.log(c2 / c1) / math.log(n2 / n1)


def measure():
    rows = []
    measured = {}
    for n in (64, 256):
        for protocol in ("pbft", "probft", "hotstuff"):
            # Condition on view-1 success: ProBFT occasionally needs a view
            # change at small n (it is a probabilistic protocol), which is
            # not the good case §3.3 describes.
            cell = MatrixCell(protocol, "none", "constant", n, n // 5)
            specs = (cell_deployment_spec(cell, s, 10_000.0) for s in itertools.count())
            result = next(r for r in map(run_trial, specs) if r.max_view == 1)
            measured[(protocol, n)] = result.protocol_messages
    for protocol, expected in (("pbft", 2.0), ("probft", 1.5), ("hotstuff", 1.0)):
        alpha = growth_exponent(
            64, measured[(protocol, 64)], 256, measured[(protocol, 256)]
        )
        rows.append(
            [
                protocol,
                measured[(protocol, 64)],
                measured[(protocol, 256)],
                round(alpha, 3),
                expected,
            ]
        )
    return rows


@pytest.mark.benchmark(group="complexity")
def test_table_complexity_growth_exponents(benchmark, report):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    claim_rows = [
        [r.protocol, r.steps, r.message_complexity, r.communication_complexity]
        for r in M.complexity_table()
    ]
    text = render_table(
        ["protocol", "msgs n=64", "msgs n=256", "measured alpha", "claimed alpha"],
        rows,
        title="TAB-C: empirical message-count growth (counts ~ n^alpha)",
    )
    text += "\n\n" + render_table(
        ["protocol", "steps", "message complexity", "communication complexity"],
        claim_rows,
        title="Paper §3.3 complexity claims",
    )
    report(text)
    for protocol, _c1, _c2, alpha, expected in rows:
        assert abs(alpha - expected) < 0.15, (protocol, alpha)


@pytest.mark.benchmark(group="complexity")
def test_table_probft_phase_split(benchmark, report):
    """The O(n) + O(n) + O(n√n) + O(n√n) decomposition of §3.3."""

    def run():
        from repro.net.latency import ConstantLatency

        cfg = ProtocolConfig(n=144, f=28)
        for seed in range(25):
            result = run_trial(
                DeploymentSpec(
                    "probft", cfg, seed=seed, latency=ConstantLatency(1.0),
                    max_time=500,
                )
            )
            if result.all_decided and result.max_view == 1:
                return cfg, result
        raise RuntimeError("no view-1 run found")

    cfg, result = benchmark.pedantic(run, rounds=1, iterations=1)
    by_type = result.messages_by_type
    rows = [
        ["Propose", by_type.get("Propose", 0), cfg.n - 1],
        [
            "Prepare",
            by_type.get("Prepare", 0),
            round(cfg.n * cfg.sample_size * (cfg.n - 1) / cfg.n),
        ],
        [
            "Commit",
            by_type.get("Commit", 0),
            round(cfg.n * cfg.sample_size * (cfg.n - 1) / cfg.n),
        ],
    ]
    report(
        render_table(
            ["phase", "measured", "expected"],
            rows,
            title=f"ProBFT per-phase message split (n={cfg.n}, s={cfg.sample_size})",
        )
    )
    assert by_type.get("Propose", 0) == cfg.n - 1
    for _phase, measured_count, expected in rows[1:]:
        assert abs(measured_count - expected) / expected < 0.08
