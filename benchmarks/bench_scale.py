"""BENCH-SCALE — protocol trial throughput versus n, dense / sparse / columnar.

The sparse delivery layer (:mod:`repro.net.sparse` plus ProBFT's
:class:`~repro.core.observation.SampleObservationPolicy`), the gossip
dissemination layer (:mod:`repro.net.gossip`), and the columnar vote-state
layer (:mod:`repro.core.columnar`) exist to push full-protocol trials past
n≈1000, then past n≈5000.  This bench pins their promises:

* **bit-identity** — wherever dense is replayed, the sparse run's
  :class:`~repro.harness.trial.RunResult` must equal the dense run's, seed
  for seed — and so must the columnar run's; at identity scale (n ≤ 50) a
  gossip-*off* round trip of the spec must equal dense too (the
  dissemination seam adds nothing when off).
* **throughput** — at n=500 the sparse path must clear **5x** dense
  trials/sec; above the dense ceiling the row carries an explicit
  ``"dense": "skipped"`` marker (absence of a number is a decision, not a
  gap).  At n=5000 the columnar path must clear **3x** the committed
  sparse baseline (0.32 trials/sec on the reference 1-core runner), and
  above the sparse ceiling columnar alone carries the curve to n=20000.
* **gossip** — every sparse-ceiling point also measures sparse+gossip
  trials/sec: the realistic-dissemination cost curve (the leader's O(n)
  broadcast replaced by O(log n)-fanout sample-and-forward hops).
* **memory** — each point records the columnar trial's peak heap
  (``peak_mem_mb``, tracemalloc) from one untimed memory-tracked replay,
  so the scaling frontier carries a space axis, not just a time axis.

Trials route through the normal execution-backend seam
(``REPRO_BENCH_WORKERS`` / ``REPRO_BENCH_BACKEND``): each trial is one
seeded :func:`~repro.harness.trial.run_trial` of the ProBFT happy-path
cell under constant latency.  Every (mode, n) pass is preceded by an
untimed pass over the same seeds so the pooled key registries are warm
for both modes alike, and each timed pass starts from a freshly collected
heap (``gc.collect()``) so deferred generation-2 cycles from the warm pass
cannot land inside the timed region — the recorded numbers are trial
throughput with VRF sampling included, not keygen or GC debt.

Run with ``--quick`` (or ``REPRO_BENCH_QUICK=1``) for the 1-core CI
profile: the two smallest points only, same seeds, same assertions — small
enough to regenerate on every CI run, deterministic enough to compare.

Columnar measurements require numpy; without it every columnar column
carries an explicit ``"skipped (no numpy)"`` marker and the columnar
assertions are vacuous (the sparse/gossip contract still runs).

Writes ``BENCH_scale.json`` at the repo root (trials/sec per n for all
modes) so successive PRs can track the scaling frontier.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time
from dataclasses import replace

import pytest

from repro.harness.backends import backend_from_env, workers_from_env
from repro.harness.parallel import ExperimentEngine, TrialSpec
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.tables import render_table
from repro.harness.trial import run_trial

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - env-dependent
    HAVE_NUMPY = False

NO_NUMPY = "skipped (no numpy)"

MASTER_SEED = 2024
MAX_TIME = 300.0

#: (n, trials) — trial counts taper so the whole bench stays CI-sized.
SCALE_POINTS = (
    (50, 3),
    (200, 3),
    (500, 3),
    (1000, 2),
    (2000, 2),
    (5000, 2),
    (20000, 1),
)

#: The ``--quick`` profile: small enough for a 1-core CI runner to
#: regenerate on every push, with the same seeds and assertions.
QUICK_POINTS = ((50, 3), (200, 2))

#: Dense is replayed only while affordable.
DENSE_CEILING = 500

#: Sparse and gossip are measured only while affordable; past this the
#: columnar stack alone carries the curve (markers, not gaps, as always).
SPARSE_CEILING = 5000

#: Gossip-off round-trip identity is asserted at or below this n.
IDENTITY_CEILING = 50

#: The sparse acceptance bar: sparse throughput over dense at this n.
SPEEDUP_AT_N = 500
SPEEDUP_FLOOR = 5.0

#: The columnar acceptance bar: columnar trials/sec at n=5000 must clear
#: COLUMNAR_FLOOR x the *committed* sparse baseline from the seed curve
#: (0.32 t/s on the reference 1-core runner) — an absolute floor, so the
#: bar cannot sag when the sparse path gets faster too.
COLUMNAR_AT_N = 5000
COMMITTED_SPARSE_TPS = 0.32
COLUMNAR_FLOOR = 3.0

WORKERS = workers_from_env("REPRO_BENCH_WORKERS", default=0)
BACKEND = backend_from_env("REPRO_BENCH_BACKEND", default=None)

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: Trial modes measured per point.  ``gossip`` rides on sparse delivery —
#: the production configuration for large n.  ``gossip-off`` is the dense
#: spec round-tripped through ``with_gossip(True).with_gossip(False)``,
#: used only for the identity assertion.  ``columnar`` is sparse delivery
#: plus array-backed vote state — the scale stack; ``columnar-mem`` is the
#: same trial with peak-heap telemetry on (untimed, memory column only).
MODES = ("dense", "sparse", "gossip", "gossip-off", "columnar", "columnar-mem")


def _cell(n: int) -> MatrixCell:
    return MatrixCell(
        protocol="probft",
        adversary="none",
        latency="constant",
        n=n,
        f=(n - 1) // 5,
        track_bytes=False,
    )


def _scale_trial(spec: TrialSpec):
    """One seeded protocol trial (module-level: pickles to pool workers)."""
    n, mode = spec.params
    dspec = cell_deployment_spec(_cell(n), seed=spec.seed, max_time=MAX_TIME)
    if mode == "sparse":
        dspec = dspec.with_sparse()
    elif mode == "gossip":
        dspec = dspec.with_gossip(True).with_sparse()
    elif mode == "gossip-off":
        dspec = dspec.with_gossip(True).with_gossip(False)
    elif mode == "columnar":
        dspec = dspec.with_sparse().with_columnar()
    elif mode == "columnar-mem":
        dspec = replace(
            dspec.with_sparse().with_columnar(), track_memory=True
        )
    return run_trial(dspec)


def _timed_pass(engine: ExperimentEngine, n: int, trials: int, mode: str):
    """Warm pass (derives the pooled key registries of these exact seeds;
    VRF proofs and samples are per-deployment and are paid again), then a
    timed pass over the same seeds; returns (results, trials/sec)."""
    assert mode in MODES, mode
    engine.run_trials(
        _scale_trial, trials, master_seed=MASTER_SEED, params=(n, mode)
    )
    # Pay down any deferred cyclic-GC debt *outside* the timed region;
    # trials disable the collector while running, so a warm pass can leave
    # a large pending gen-2 collection behind.
    gc.collect()
    start = time.perf_counter()
    results = engine.run_trials(
        _scale_trial, trials, master_seed=MASTER_SEED, params=(n, mode)
    )
    elapsed = time.perf_counter() - start
    return results, trials / elapsed if elapsed else float("inf")


def compute_scale_curve(points=SCALE_POINTS):
    engine = ExperimentEngine(workers=WORKERS, backend=BACKEND)
    rows = {}
    try:
        for n, trials in points:
            row = {"f": (n - 1) // 5, "trials": trials}
            if n <= SPARSE_CEILING:
                sparse_results, sparse_tps = _timed_pass(
                    engine, n, trials, "sparse"
                )
                _gossip_results, gossip_tps = _timed_pass(
                    engine, n, trials, "gossip"
                )
                row["sparse_trials_per_sec"] = round(sparse_tps, 3)
                row["gossip_trials_per_sec"] = round(gossip_tps, 3)
            else:
                # Explicit markers: past the sparse ceiling only the
                # columnar stack is affordable; the numbers are not
                # missing, the modes were skipped by policy.
                row["sparse"] = "skipped"
                row["gossip"] = "skipped"
            if HAVE_NUMPY:
                columnar_results, columnar_tps = _timed_pass(
                    engine, n, trials, "columnar"
                )
                row["columnar_trials_per_sec"] = round(columnar_tps, 3)
                # One untimed memory-tracked replay of the first seed gives
                # the point its peak-heap telemetry (tracemalloc roughly
                # doubles wall clock, so it never runs inside a timed pass).
                mem_results = engine.run_trials(
                    _scale_trial, 1, master_seed=MASTER_SEED,
                    params=(n, "columnar-mem"),
                )
                row["columnar_peak_mem_mb"] = mem_results[0].peak_mem_mb
            else:
                row["columnar"] = NO_NUMPY
            if n <= DENSE_CEILING:
                dense_results, dense_tps = _timed_pass(engine, n, trials, "dense")
                row["dense_trials_per_sec"] = round(dense_tps, 3)
                row["speedup"] = round(sparse_tps / dense_tps, 2)
                # Identity is asserted at every n where dense runs —
                # comparing results already in hand costs nothing.
                row["identical"] = dense_results == sparse_results
                if HAVE_NUMPY:
                    row["columnar_identical"] = dense_results == columnar_results
                if n <= IDENTITY_CEILING:
                    off_results, _off_tps = _timed_pass(
                        engine, n, trials, "gossip-off"
                    )
                    row["gossip_off_identical"] = dense_results == off_results
            else:
                # Explicit marker: dense was skipped by policy, the number
                # is not missing.
                row["dense"] = "skipped"
            rows[str(n)] = row
    finally:
        engine.close()
    out = {
        "bench": "scale-sparse-delivery",
        "protocol": "probft",
        "adversary": "none",
        "latency": "constant",
        "master_seed": MASTER_SEED,
        "workers": WORKERS,
        "backend": BACKEND or ("serial" if WORKERS <= 1 else "pool"),
        "cpu_count": os.cpu_count() or 1,
        "rows": rows,
    }
    speedup_key = str(SPEEDUP_AT_N)
    if speedup_key in rows and "speedup" in rows[speedup_key]:
        out["speedup_at_500"] = rows[speedup_key]["speedup"]
    columnar_key = str(COLUMNAR_AT_N)
    if (
        columnar_key in rows
        and "columnar_trials_per_sec" in rows[columnar_key]
    ):
        tps = rows[columnar_key]["columnar_trials_per_sec"]
        out["columnar_at_5000"] = tps
        out["columnar_speedup_vs_committed_sparse"] = round(
            tps / COMMITTED_SPARSE_TPS, 2
        )
    return out


def _assert_scale_contract(row, points):
    """The bench's promises, shared by the full and ``--quick`` profiles."""
    for n, _ in points:
        cells = row["rows"][str(n)]
        if n <= DENSE_CEILING:
            assert cells["identical"], f"n={n}: sparse diverged from dense"
            if HAVE_NUMPY:
                assert cells["columnar_identical"], (
                    f"n={n}: columnar diverged from dense"
                )
            assert "dense" not in cells
        else:
            assert cells["dense"] == "skipped"
            assert "dense_trials_per_sec" not in cells
        if n <= SPARSE_CEILING:
            assert cells["gossip_trials_per_sec"] > 0
        else:
            assert cells["sparse"] == "skipped"
            assert cells["gossip"] == "skipped"
            assert "sparse_trials_per_sec" not in cells
        if HAVE_NUMPY:
            assert cells["columnar_trials_per_sec"] > 0
            assert cells["columnar_peak_mem_mb"] > 0
        else:
            assert cells["columnar"] == NO_NUMPY
        if n <= IDENTITY_CEILING:
            assert cells["gossip_off_identical"], (
                f"n={n}: gossip-off diverged from dense"
            )
    if "speedup_at_500" in row:
        assert row["speedup_at_500"] >= SPEEDUP_FLOOR, row["speedup_at_500"]
    if "columnar_at_5000" in row:
        floor = COLUMNAR_FLOOR * COMMITTED_SPARSE_TPS
        assert row["columnar_at_5000"] >= floor, (
            f"columnar at n={COLUMNAR_AT_N}: "
            f"{row['columnar_at_5000']} t/s < {floor} t/s "
            f"({COLUMNAR_FLOOR}x committed sparse {COMMITTED_SPARSE_TPS})"
        )


def _render(row, points):
    return [
        [
            n,
            row["rows"][n]["trials"],
            row["rows"][n].get(
                "dense_trials_per_sec", row["rows"][n].get("dense", "—")
            ),
            row["rows"][n].get(
                "sparse_trials_per_sec", row["rows"][n].get("sparse", "—")
            ),
            row["rows"][n].get(
                "gossip_trials_per_sec", row["rows"][n].get("gossip", "—")
            ),
            row["rows"][n].get(
                "columnar_trials_per_sec", row["rows"][n].get("columnar", "—")
            ),
            row["rows"][n].get("columnar_peak_mem_mb", "—"),
            row["rows"][n].get("speedup", "—"),
            row["rows"][n].get("identical", "—"),
            row["rows"][n].get("columnar_identical", "—"),
            row["rows"][n].get("gossip_off_identical", "—"),
        ]
        for n in (str(n) for n, _ in points)
    ]


@pytest.mark.benchmark(group="scale")
def test_bench_scale(benchmark, report, bench_quick):
    points = QUICK_POINTS if bench_quick else SCALE_POINTS
    row = benchmark.pedantic(
        compute_scale_curve, args=(points,), rounds=1, iterations=1
    )
    if not bench_quick:
        # Only the full profile overwrites the tracked artifact; a quick CI
        # run must not shrink the committed scaling curve.
        ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    report(
        render_table(
            [
                "n",
                "trials",
                "dense t/s",
                "sparse t/s",
                "gossip t/s",
                "columnar t/s",
                "peak MB",
                "speedup",
                "identical",
                "columnar ==",
                "gossip-off ==",
            ],
            _render(row, points),
            title=(
                f"BENCH-SCALE: ProBFT happy-path trials/sec vs n "
                f"(constant latency, workers={WORKERS}, "
                f"cpus={row['cpu_count']}, "
                f"profile={'quick' if bench_quick else 'full'})\n"
                + (
                    "quick profile: artifact NOT rewritten"
                    if bench_quick
                    else f"wrote {ARTIFACT.name}"
                )
                + f"; sparse must be bit-identical wherever dense runs and "
                f">= {SPEEDUP_FLOOR}x dense at n={SPEEDUP_AT_N}; columnar "
                f"must be bit-identical wherever dense runs and >= "
                f"{COLUMNAR_FLOOR}x the committed sparse baseline "
                f"({COMMITTED_SPARSE_TPS} t/s) at n={COLUMNAR_AT_N}"
            ),
        )
    )
    _assert_scale_contract(row, points)
