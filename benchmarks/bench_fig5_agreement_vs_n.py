"""FIG-5 (top-left) — agreement probability vs system size.

Paper claim: with faulty leaders in every view (worst case, Figure 4c
optimal split) and f/n = 0.2, the probability of ensuring agreement within a
view grows with n and lives in the 0.999..1 band.

Curves: the paper's Theorem-7 bound (NaN where its Chernoff domain fails —
exactly what happens for o ≥ n/r at these parameters), the exact binomial
chain for the fixed-pair event Lemma 5 analyses, and a Monte-Carlo estimate
of the per-side decide probability.  The full protocol is stricter than all
of these: equivocation detection makes observed violations vanish
(``tests/test_montecarlo.py::test_detection_crushes_violation`` and the
full-protocol runs in tests).
"""

import time

import pytest

from repro.adversary.equivocation import equivocation_byzantine_map
from repro.analysis import agreement as A
from repro.config import ProtocolConfig
from repro.crypto.context import CryptoContext, clear_crypto_pool
from repro.crypto.hashing import digest
from repro.harness.parallel import (
    ExperimentEngine,
    spawn_seeds,
    workers_from_env,
)
from repro.harness.tables import render_series, render_table
from repro.harness.trial import DeploymentSpec, run_trial
from repro.montecarlo.experiments import estimate_agreement_violation
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout

N_VALUES = [100, 150, 200, 250, 300]
F_RATIO = 0.2
O_VALUES = (1.6, 1.7, 1.8)
TRIALS = 1200

#: Process-pool size for the Monte-Carlo trials; 0 = serial.  The engine's
#: counter-based seeds make results identical for every worker count.
WORKERS = workers_from_env("REPRO_BENCH_WORKERS")


def compute_curves(workers: int = WORKERS):
    curves = {}
    with ExperimentEngine(workers=workers) as engine:
        for o in O_VALUES:
            paper, exact, mc_pair = [], [], []
            for n in N_VALUES:
                f = int(F_RATIO * n)
                paper.append(1.0 - A.theorem7_violation_bound(n, f, o, 2.0, strict=False))
                exact.append(A.agreement_in_view_exact(n, f, o, 2.0, variant="pair"))
                result = estimate_agreement_violation(
                    n, f, o, trials=TRIALS, seed=n, engine=engine
                )
                side = result.estimates["side_decides_fixed"].point
                mc_pair.append(1.0 - side**2)
            curves[f"bound o={o}"] = paper
            curves[f"exact o={o}"] = exact
            curves[f"mc o={o}"] = mc_pair
    return curves


@pytest.mark.benchmark(group="fig5")
def test_fig5_agreement_vs_n(benchmark, report):
    curves = benchmark.pedantic(compute_curves, rounds=1, iterations=1)
    text = render_series(
        "n",
        N_VALUES,
        curves,
        title=(
            "FIG-5 top-left: within-view agreement probability vs n "
            f"(f/n={F_RATIO}, Byzantine leader, optimal split)\n"
            "paper shape: in the 0.999..1 band, increasing with n; "
            "bound=n/a where Theorem 7's Chernoff domain fails"
        ),
    )
    report(text)
    for o in O_VALUES:
        exact = curves[f"exact o={o}"]
        # High-probability band and overall increase.
        assert all(v > 0.9 for v in exact)
        assert exact[-1] >= exact[0] - 1e-6
    assert curves["exact o=1.7"][-1] > 0.999
    # Lower redundancy o gives the adversary less to work with.
    assert curves["exact o=1.6"][0] > curves["exact o=1.8"][0]


# ----------------------------------------------------------------------
# Protocol-level smallest cell: the full simulation under the optimal
# attack, measuring what the pooled CryptoContext buys on the hot path.
# ----------------------------------------------------------------------

#: Smallest protocol-level cell (CI smoke target): full discrete-event
#: simulation with real Byzantine replicas at modest n.
PROTOCOL_N = 20
PROTOCOL_TRIALS = 8
#: Master seed for the protocol-level trials — fixed so the seed set stays
#: comparable when the cell is re-run at a different n.
PROTOCOL_MASTER_SEED = 2024


def compute_protocol_cell(n: int = PROTOCOL_N, trials: int = PROTOCOL_TRIALS):
    """Run the Figure-4c attack cell twice — fresh vs pooled crypto.

    Both runs execute identical trials through the unified ``run_trial``
    lifecycle; the fresh run injects uncached ``CryptoContext.create``
    contexts while the pooled run uses the default per-process pool with
    memoized verification.  Returns the violation count (the Figure-5
    estimate) plus both wall-clock timings.
    """
    config = ProtocolConfig(n=n, f=int(F_RATIO * n))
    seeds = spawn_seeds(PROTOCOL_MASTER_SEED, trials)

    def one_trial(seed: int, crypto=None):
        byzantine, _plan = equivocation_byzantine_map(config)
        return run_trial(
            DeploymentSpec(
                protocol="probft",
                config=config,
                seed=seed,
                latency=ConstantLatency(1.0),
                timeout_policy=FixedTimeout(20.0),
                byzantine=byzantine,
                max_time=5000,
                extra=(("crypto", crypto),) if crypto is not None else (),
            )
        )

    clear_crypto_pool()
    start = time.perf_counter()
    fresh = [
        one_trial(
            seed, CryptoContext.create(config.n, digest("deployment", seed))
        )
        for seed in seeds
    ]
    fresh_time = time.perf_counter() - start

    clear_crypto_pool()
    start = time.perf_counter()
    pooled = [one_trial(seed) for seed in seeds]
    pooled_time = time.perf_counter() - start

    return {
        "n": n,
        "trials": trials,
        "violations": sum(not r.agreement_ok for r in pooled),
        "undecided": sum(not r.all_decided for r in pooled),
        "identical": fresh == pooled,
        "fresh_s": fresh_time,
        "pooled_s": pooled_time,
        "speedup": fresh_time / pooled_time if pooled_time else float("inf"),
    }


@pytest.mark.benchmark(group="fig5")
def test_fig5_agreement_protocol_cell(benchmark, report):
    row = benchmark.pedantic(compute_protocol_cell, rounds=1, iterations=1)
    report(
        render_table(
            ["field", "value"],
            [[k, v] for k, v in row.items()],
            title=(
                "FIG-5 protocol-level smallest cell (full simulation, optimal "
                "split attack)\npooled CryptoContext vs fresh per-trial crypto "
                "— results must be bit-identical"
            ),
        )
    )
    # The paper's claim at the protocol level: equivocation detection makes
    # observed violations vanish entirely.
    assert row["violations"] == 0
    # Pooling is a pure optimization: identical trial outcomes.  The
    # ``speedup`` row is reported, not asserted: one unpaired run cannot
    # resolve a ratio this close to 1.
    assert row["identical"]
