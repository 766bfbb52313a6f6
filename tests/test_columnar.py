"""Columnar vote state: packed-bitmap primitives, golden-seed identity,
summary accounting, crypto memo budgets, and memory telemetry.

The columnar layer's contract (see :mod:`repro.core.columnar`) is that a
run with ``DeploymentSpec.columnar`` (riding on sparse delivery) is
**bit-identical** to the dense reference for the same seed: same
decisions, same views, same message statistics, same simulated time.
These tests replay matrix cells both ways (the
:mod:`tests.test_sparse_delivery` pattern) and unit-test the building
blocks the kernel leans on.

Each identity comparison builds a *fresh* spec per run via
:func:`~repro.harness.registry.cell_deployment_spec`: a DeploymentSpec
carries seeded latency/chaos objects whose RNG streams advance as the
simulation runs, so replaying a used spec would compare against an
advanced stream, not against dense mode.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

np = pytest.importorskip(
    "numpy",
    reason=(
        "columnar vote state requires numpy; install numpy to run the "
        "columnar test suite (the dense path needs none of it)"
    ),
)

from repro.config import ProtocolConfig
from repro.core.columnar import (
    bitmap_from_ids,
    bitmap_ids,
    bitmap_merge,
    bitmap_popcount,
    bitmap_words,
)
from repro.crypto.context import (
    MEMO_BUDGET_CEILING,
    MEMO_BUDGET_FLOOR,
    CryptoContext,
    memo_budget,
)
from repro.crypto.signatures import MemoizedSignatureScheme
from repro.crypto.vrf import MemoizedVRF
from repro.harness.metrics import IndexedCounter
from repro.harness.registry import (
    ADVERSARIES,
    MatrixCell,
    ScenarioMatrix,
    cell_deployment_spec,
)
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.network import MessageStats

PROTOCOLS = ("probft", "pbft", "hotstuff")
MAX_TIME = 600.0

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - env-dependent
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# Packed-bitmap primitives
# ----------------------------------------------------------------------


def _check_roundtrip_and_popcount(ids, n):
    words = bitmap_from_ids(ids, n)
    assert words.shape == (bitmap_words(n),)
    assert bitmap_ids(words) == tuple(sorted(set(ids)))
    assert bitmap_popcount(words) == len(set(ids))


def _check_merge(a_ids, b_ids, n):
    a = bitmap_from_ids(a_ids, n)
    b = bitmap_from_ids(b_ids, n)
    merged = bitmap_merge(a, b)
    assert bitmap_ids(merged) == tuple(sorted(set(a_ids) | set(b_ids)))
    assert bitmap_popcount(merged) == len(set(a_ids) | set(b_ids))
    # Inputs untouched (merge allocates).
    assert bitmap_ids(a) == tuple(sorted(set(a_ids)))
    assert bitmap_ids(b) == tuple(sorted(set(b_ids)))


class TestPackedBitmaps:
    if HAVE_HYPOTHESIS:

        @settings(max_examples=100, deadline=None)
        @given(
            n=st.integers(min_value=1, max_value=300),
            data=st.data(),
        )
        def test_roundtrip_and_popcount_property(self, n, data):
            ids = data.draw(
                st.lists(st.integers(min_value=0, max_value=n - 1))
            )
            _check_roundtrip_and_popcount(ids, n)

        @settings(max_examples=100, deadline=None)
        @given(
            n=st.integers(min_value=1, max_value=300),
            data=st.data(),
        )
        def test_merge_is_union_property(self, n, data):
            members = st.lists(st.integers(min_value=0, max_value=n - 1))
            _check_merge(data.draw(members), data.draw(members), n)

    else:  # pragma: no cover - exercised only without hypothesis

        def test_roundtrip_and_popcount_seeded(self):
            rng = random.Random(0xC01)
            for _ in range(200):
                n = rng.randint(1, 300)
                ids = [rng.randrange(n) for _ in range(rng.randint(0, n))]
                _check_roundtrip_and_popcount(ids, n)

        def test_merge_is_union_seeded(self):
            rng = random.Random(0xC02)
            for _ in range(200):
                n = rng.randint(1, 300)
                a = [rng.randrange(n) for _ in range(rng.randint(0, n))]
                b = [rng.randrange(n) for _ in range(rng.randint(0, n))]
                _check_merge(a, b, n)

    def test_word_boundaries_exact(self):
        # 63/64/65 straddle the uint64 word edge — the classic off-by-one.
        for n in (63, 64, 65, 127, 128, 129):
            ids = [0, n - 1]
            words = bitmap_from_ids(ids, n)
            assert bitmap_ids(words) == (0, n - 1)
            assert bitmap_popcount(words) == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            bitmap_from_ids([8], 8)
        with pytest.raises(ValueError, match="out of range"):
            bitmap_from_ids([-1], 8)

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            bitmap_merge(
                bitmap_from_ids([0], 64), bitmap_from_ids([0], 128)
            )


# ----------------------------------------------------------------------
# Golden-seed identity: dense == sparse+columnar, full RunResult
# ----------------------------------------------------------------------


def _supported_cells(latency: str):
    for protocol in PROTOCOLS:
        for adversary in ADVERSARIES:
            cell = MatrixCell(
                protocol=protocol,
                adversary=adversary,
                latency=latency,
                n=14,
                f=2,
                track_bytes=True,
            )
            if cell.supported:
                yield cell


class TestGoldenSeedIdentity:
    @pytest.mark.parametrize("latency", ["constant", "uniform"])
    def test_every_cell_bit_identical(self, latency):
        """Dense and sparse+columnar produce equal RunResults per cell.

        Covers the kernel's branchy cases explicitly: equivocation (the
        view-flagging decline path), flooding (invalid votes through
        ``_deliver_odd``), duplication (the kernel declines, facades
        dedup), and the targeted scheduler (per-recipient eligibility).
        """
        for cell in _supported_cells(latency):
            for seed in (0, 1):
                dense = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                )
                columnar = run_trial(
                    cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME)
                    .with_sparse()
                    .with_columnar()
                )
                assert dense == columnar, (
                    f"{cell.label} seed={seed}: columnar diverged from dense"
                )

    def test_columnar_cell_flag_matches_dense(self):
        """``MatrixCell(columnar=True)`` is the one-knob scale stack."""
        plain = MatrixCell("probft", "silent", "constant", n=14, f=2)
        flagged = MatrixCell(
            "probft", "silent", "constant", n=14, f=2, columnar=True
        )
        spec = cell_deployment_spec(flagged, seed=3, max_time=MAX_TIME)
        assert spec.sparse and spec.columnar
        dense = run_trial(cell_deployment_spec(plain, seed=3, max_time=MAX_TIME))
        columnar = run_trial(spec)
        assert dense == columnar

    def test_with_columnar_round_trip(self):
        spec = DeploymentSpec(protocol="probft", config=ProtocolConfig(n=6, f=1))
        assert not spec.columnar
        on = spec.with_columnar()
        assert on.columnar and on.with_columnar(False) == spec

    def test_scenario_matrix_threads_flags(self):
        matrix = ScenarioMatrix(
            name="t",
            protocols=("probft",),
            adversaries=("none",),
            latencies=("constant",),
            n=14,
            columnar=True,
            track_memory=True,
        )
        (cell,) = matrix.cells()
        assert cell.columnar and cell.track_memory
        resized = matrix.with_size(20)
        assert resized.columnar and resized.track_memory


# ----------------------------------------------------------------------
# Memory telemetry
# ----------------------------------------------------------------------


class TestMemoryTelemetry:
    def test_track_memory_reports_peak(self):
        spec = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=8, f=1),
            seed=1,
            max_time=MAX_TIME,
            track_memory=True,
        )
        result = run_trial(spec)
        assert result.peak_mem_mb is not None and result.peak_mem_mb > 0

    def test_untracked_peak_is_none_and_identical_otherwise(self):
        base = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=8, f=1),
            seed=1,
            max_time=MAX_TIME,
        )
        plain = run_trial(base)
        tracked = run_trial(
            DeploymentSpec(
                protocol="probft",
                config=ProtocolConfig(n=8, f=1),
                seed=1,
                max_time=MAX_TIME,
                track_memory=True,
            )
        )
        assert plain.peak_mem_mb is None
        # Telemetry only: every protocol-visible field matches (the
        # telemetry field itself is the one permitted difference).
        from dataclasses import replace as _replace

        assert plain == _replace(tracked, peak_mem_mb=None)


# ----------------------------------------------------------------------
# Byte-budgeted crypto memo caps
# ----------------------------------------------------------------------


class TestCryptoMemoBudgets:
    def test_memo_budget_clamps(self):
        small_budget, small_entry = memo_budget(8)
        assert small_budget == MEMO_BUDGET_FLOOR  # floor binds at tiny n
        big_budget, big_entry = memo_budget(20000)
        assert big_budget == MEMO_BUDGET_CEILING  # ceiling binds at n≈2·10⁴
        assert big_entry > small_entry  # entry estimate scales with s(n)

    def test_vrf_byte_budget_bounds_and_counts_evictions(self):
        fresh = CryptoContext.create(6, b"vrf-budget")
        # Room for exactly 3 entries per memo map.
        memo = MemoizedVRF(fresh.registry, byte_budget=3 * 512, entry_bytes=512)
        for view in range(10):
            memo.prove(0, f"{view}||prepare", 3)
        assert len(memo._prove_cache) <= 3
        stats = memo.cache_stats()
        assert stats["evictions"] > 0
        assert stats["max_entries"] == 3
        # Evicted keys still prove correctly (and bit-identically).
        again = memo.prove(0, "0||prepare", 3)
        assert again == fresh.vrf.prove(0, "0||prepare", 3)

    def test_vrf_byte_budget_never_below_one_entry(self):
        fresh = CryptoContext.create(4, b"vrf-budget-tiny")
        memo = MemoizedVRF(fresh.registry, byte_budget=1, entry_bytes=2048)
        memo.prove(0, "1||prepare", 2)
        assert memo.cache_stats()["max_entries"] == 1

    def test_signature_byte_budget_bounds_and_counts_evictions(self):
        fresh = CryptoContext.create(4, b"sig-budget")
        memo = MemoizedSignatureScheme(
            fresh.registry, byte_budget=2 * 1024, entry_bytes=1024
        )
        envelopes = [memo.sign(0, ("m", i)) for i in range(6)]
        for envelope in envelopes:
            assert memo.verify(envelope)
        stats = memo.cache_stats()
        assert len(memo._cache) <= 2
        assert stats["max_entries"] == 2
        assert stats["evictions"] > 0
        for envelope in envelopes:  # evicted entries still verify
            assert memo.verify(envelope)

    def test_cache_stats_shapes(self):
        fresh = CryptoContext.create(4, b"stats-shape")
        vrf_stats = MemoizedVRF(fresh.registry).cache_stats()
        for key in (
            "misses",
            "prove_hits",
            "prove_misses",
            "evictions",
            "entries",
            "max_entries",
        ):
            assert key in vrf_stats
        sig_stats = MemoizedSignatureScheme(fresh.registry).cache_stats()
        for key in ("hits", "misses", "tag_hits", "evictions", "entries"):
            assert key in sig_stats


# ----------------------------------------------------------------------
# Summary network accounting
# ----------------------------------------------------------------------


class TestIndexedCounter:
    def test_matches_counter_semantics(self):
        index = {}
        counted = IndexedCounter(index)
        reference = Counter()
        rng = random.Random(7)
        names = ["Prepare", "Commit", "Propose", "NewLeader"]
        for _ in range(500):
            name = rng.choice(names)
            amount = rng.randint(1, 5)
            counted.bump(name, amount)
            reference[name] += amount
        assert counted.as_counter() == reference
        assert counted.total() == sum(reference.values())
        for name in names:
            assert counted.get(name) == reference[name]

    def test_shared_index_one_slot_per_name(self):
        index = {}
        sent = IndexedCounter(index)
        delivered = IndexedCounter(index)
        assert sent.slot("Prepare") == delivered.slot("Prepare")
        sent.bump("Prepare", 2)
        delivered.bump("Commit")  # grows both lists through the shared index
        assert sent.get("Commit") == 0
        assert delivered.get("Prepare") == 0

    def test_touched_zero_keys_preserved(self):
        # Counter key-presence semantics: a size-0 record must surface the
        # key with value 0 (dense byte accounting does exactly this).
        counter = IndexedCounter({})
        counter.bump("Prepare", 0)
        assert counter.as_counter() == Counter({"Prepare": 0})
        assert "Prepare" in counter.as_counter()


class TestMessageStatsSummaryAccounting:
    class _Msg:
        pass

    def test_counters_rebuild_identically(self):
        stats = MessageStats()
        msg = self._Msg()
        stats.record_send(1, msg, size=10)
        stats.record_multicast(2, msg, 5, size=7)
        stats.record_delivery(msg)
        stats.record_bulk_delivery(msg, 4)
        assert stats.sent_by_type == Counter({"_Msg": 6})
        assert stats.delivered_by_type == Counter({"_Msg": 5})
        assert stats.bytes_by_type == Counter({"_Msg": 10 + 5 * 7})
        assert stats.sent_total == 6
        assert stats.delivered_total == 5
        assert stats.bytes_total == 45
        assert stats.sent("_Msg") == 6 and stats.sent("Other") == 0

    def test_history_is_opt_in(self):
        msg = self._Msg()
        silent = MessageStats()
        silent.record_send(1, msg, size=3)
        silent.record_bulk_delivery(msg, 2)
        assert silent.history == []
        verbose = MessageStats(track_history=True)
        verbose.record_send(1, msg, size=3)
        verbose.record_multicast(2, msg, 2, size=None)
        verbose.record_delivery(msg)
        verbose.record_bulk_delivery(msg, 2)
        assert verbose.history == [
            ("send", 1, "_Msg", 1, 3),
            ("send", 2, "_Msg", 2, None),
            ("deliver", "_Msg", 1),
            ("deliver", "_Msg", 2),
        ]

    def test_zero_count_records_ignored(self):
        stats = MessageStats(track_history=True)
        stats.record_multicast(1, self._Msg(), 0, size=5)
        stats.record_bulk_delivery(self._Msg(), 0)
        assert stats.sent_total == 0 and stats.delivered_total == 0
        assert stats.history == []
