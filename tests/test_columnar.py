"""What the columnar stack brought along besides the kernel: memory
telemetry, byte-budgeted crypto memos, and summary network accounting.

The kernel and the columnar vote state themselves are pinned against the
oracle in :mod:`tests.test_reference_identity`.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.config import ProtocolConfig
from repro.crypto.context import (
    MEMO_BUDGET_CEILING,
    MEMO_BUDGET_FLOOR,
    CryptoContext,
    memo_budget,
)
from repro.crypto.signatures import MemoizedSignatureScheme
from repro.crypto.vrf import MemoizedVRF
from repro.harness.metrics import IndexedCounter
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.network import MessageStats

MAX_TIME = 600.0


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

    def test_scenario_matrix_threads_track_memory(self):
        from repro.harness.registry import ScenarioMatrix

        matrix = ScenarioMatrix(
            name="t",
            protocols=("probft",),
            adversaries=("none",),
            latencies=("constant",),
            n=14,
            track_memory=True,
        )
        (cell,) = matrix.cells()
        assert cell.track_memory
        assert matrix.with_size(20).track_memory

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
