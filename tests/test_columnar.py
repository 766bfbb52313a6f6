"""What the columnar stack brought along besides the kernel: memory
telemetry, a crypto layer without budgets, and summary network accounting.

The kernel and the columnar vote state themselves are pinned against the
oracle in :mod:`tests.test_reference_identity`.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.config import ProtocolConfig
from repro.crypto.context import CryptoContext
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
# The crypto layer without budgets: one verdict table, nothing evicted
# ----------------------------------------------------------------------


class TestCryptoWithoutBudgets:
    def _instance(self, n: int, seed: bytes) -> CryptoContext:
        return CryptoContext.create(n, seed).instance(ProtocolConfig(n=n))

    def test_nothing_is_evicted_however_many_objects(self):
        """No budget clamps what an instance remembers: every envelope it
        produced or checked keeps its verdict until the table is cleared."""
        crypto = self._instance(4, b"no-budget")
        key = crypto.registry.key_pair(1).private_key
        envelopes = [crypto.signatures.sign(0, ("m", i)) for i in range(6000)]
        forged = [crypto.signatures.sign_with(key, 2, ("f", i)) for i in range(6000)]
        assert not any(crypto.signatures.verify(e) for e in forged)
        assert len(crypto.verdicts) == 12000
        assert all(crypto.signatures.verify(e) for e in envelopes)
        assert not any(crypto.signatures.verify(e) for e in forged)
        stats = crypto.signatures.cache_stats()
        assert stats == {
            "hits": 12000,
            "misses": 6000,
            "born_valid": 6000,
            "tags_computed": 0,  # born valid: nobody read an honest tag
        }
        crypto.verdicts.clear()
        assert len(crypto.verdicts) == 0
        assert crypto.signatures.cache_stats() == stats  # counts stay readable

    def test_prove_is_pure_not_memoized(self):
        fresh = CryptoContext.create(6, b"prove-purity")
        crypto = fresh.instance(ProtocolConfig(n=6))
        outputs = [crypto.vrf.prove(0, f"{v}||prepare", 3) for v in range(10)]
        again = [crypto.vrf.prove(0, f"{v}||prepare", 3) for v in range(10)]
        assert outputs == again == [
            fresh.vrf.prove(0, f"{v}||prepare", 3) for v in range(10)
        ]
        assert all(a is not b for a, b in zip(outputs, again))
        # Every expansion counted: each first prove of a seed expands its
        # block (all 6 provers), each repeat its row again.
        assert crypto.vrf.cache_stats()["misses"] == 10 * 6 + 10

    def test_born_valid_only_through_the_registry_key(self):
        crypto = self._instance(4, b"born-valid")
        honest = crypto.signatures.sign(0, ("m", 1))
        counts = crypto.verdicts.counts
        assert counts.born["signature"] == 1
        assert crypto.signatures.verify(honest)
        assert counts.computed["signature"] == 0  # nothing to recompute
        # The corrupted-key path with the *right* key: valid, but verified.
        key = crypto.registry.key_pair(0).private_key
        corrupted = crypto.signatures.sign_with(key, 0, ("m", 1))
        assert corrupted == honest and corrupted is not honest
        assert counts.born["signature"] == 1
        assert crypto.signatures.verify(corrupted)
        assert counts.computed["signature"] == 1

    def test_signature_verdict_is_by_identity_not_by_signature(self):
        """A forged envelope reusing a real signature is a different object
        and fails, whatever the table holds about the real one."""
        from repro.crypto.signatures import Signed

        crypto = self._instance(4, b"sig-identity")
        signed = crypto.signatures.sign(1, ("vote", b"A"))
        assert crypto.signatures.verify(signed)
        forged = Signed(payload=("vote", b"B"), signer=1, signature=signed.signature)
        assert not crypto.signatures.verify(forged)
        assert not crypto.signatures.verify(forged)
        assert crypto.signatures.cache_stats() == {
            "hits": 2, "misses": 1, "born_valid": 1,
            "tags_computed": 1,  # the forger read the real tag to copy it
        }

    def test_cache_stats_shapes(self):
        """The keys the benchmark adapter reads, with and without a table."""
        for crypto in (
            CryptoContext.create(4, b"stats-shape"),
            self._instance(4, b"stats-shape"),
        ):
            vrf_stats = crypto.vrf.cache_stats()
            assert set(vrf_stats) == {
                "misses", "verify_hits", "verify_misses", "born_valid",
            }
            sig_stats = crypto.signatures.cache_stats()
            assert set(sig_stats) == {
                "hits", "misses", "born_valid", "tags_computed",
            }
            assert not any(vrf_stats.values()) and not any(sig_stats.values())


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
        stats.record_run([(1, msg, (0, 2, 3, 4))], [4])
        assert stats.sent_by_type == Counter({"_Msg": 6})
        assert stats.delivered_by_type == Counter({"_Msg": 5})
        assert stats.bytes_by_type == Counter({"_Msg": 10 + 5 * 7})
        assert stats.sent_total == 6
        assert stats.delivered_total == 5
        assert stats.bytes_total == 45
        assert stats.sent("_Msg") == 6 and stats.sent("Other") == 0

    def test_zero_count_records_ignored(self):
        stats = MessageStats()
        stats.record_multicast(1, self._Msg(), 0, size=5)
        stats.record_run([(1, self._Msg(), (2,))], [0])
        assert stats.sent_total == 0 and stats.delivered_total == 0
        assert stats.sent_by_type == Counter() and stats.sent_by_replica == Counter()
        assert stats.delivered_by_type == Counter()

    def test_a_run_is_recorded_as_its_buckets_one_by_one(self):
        """One ``record_run`` per run: every kind (signed envelopes by
        their payload's type) gets the sum of its buckets' counts, and a
        kind whose buckets all delivered nothing is not touched."""
        from repro.crypto.signatures import Signed
        from repro.messages.base import ProposalStatement
        from repro.messages.probft import Commit, Prepare

        statement = Signed(ProposalStatement(view=1, value=b"v"), 0, b"tag")
        prepare = Signed(Prepare(statement=statement, sample=None), 1, b"tag")
        commit = Signed(Commit(statement=statement, sample=None), 2, b"tag")
        plain = self._Msg()
        run = [(1, prepare, (3,)), (2, commit, (4, 5)), (1, plain, (6,)), (2, prepare, (7,))]
        stats = MessageStats()
        stats.record_run(run + [(0, commit, (8,))], [1, 2, 0, 1])  # (the last: not answered)
        assert stats.delivered_by_type == Counter({"Prepare": 2, "Commit": 2})
        assert stats.delivered_total == 4
        one_by_one = MessageStats()
        for bucket, count in zip(run, [1, 2, 0, 1]):
            one_by_one.record_run([bucket], [count])
        assert one_by_one.delivered_by_type == stats.delivered_by_type
