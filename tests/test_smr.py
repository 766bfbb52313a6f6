"""Tests for the SMR extension (multi-slot replication)."""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.smr.app import NOOP, CounterApp, KeyValueApp, StateMachine
from repro.smr.encoding import (
    commands_in,
    decode_batch,
    decode_request,
    encode_batch,
    encode_request,
    request_payload,
)
from repro.smr.log import DecisionLog
from repro.smr.service import SMRDeployment


class TestApps:
    def test_counter_operations(self):
        app = CounterApp()
        assert app.apply(b"INC") == b"1"
        assert app.apply(b"ADD:10") == b"11"
        assert app.apply(b"DEC") == b"10"
        assert app.snapshot() == 10

    def test_counter_rejects_garbage(self):
        app = CounterApp()
        assert app.apply(b"FLY") == b"error:unknown-command"
        assert app.apply(b"ADD:xyz") == b"error:bad-operand"
        assert app.snapshot() == 0

    def test_counter_noop(self):
        app = CounterApp()
        assert app.apply(NOOP) == b"ok"
        assert app.snapshot() == 0

    def test_kv_operations(self):
        app = KeyValueApp()
        assert app.apply(b"SET k v") == b"ok"
        assert app.apply(b"SET k2 v2") == b"ok"
        assert app.apply(b"DEL k") == b"ok"
        assert app.apply(b"DEL k") == b"missing"
        assert app.snapshot() == ((b"k2", b"v2"),)

    def test_kv_rejects_garbage(self):
        app = KeyValueApp()
        assert app.apply(b"SET too many parts here") == b"error:unknown-command"

    def test_determinism(self):
        cmds = [b"INC", b"ADD:5", b"DEC", NOOP, b"INC"]
        a, b = CounterApp(), CounterApp()
        for c in cmds:
            a.apply(c)
            b.apply(c)
        assert a.snapshot() == b.snapshot()


class TestDecisionLog:
    def test_in_order_application(self):
        log = DecisionLog(CounterApp())
        assert log.record(1, b"INC") == [1]
        assert log.record(2, b"INC") == [2]
        assert log.applied_up_to == 2
        assert log.app.snapshot() == 2

    def test_out_of_order_buffered(self):
        log = DecisionLog(CounterApp())
        assert log.record(3, b"INC") == []
        assert log.record(2, b"ADD:10") == []
        assert log.applied_up_to == 0
        assert log.record(1, b"INC") == [1, 2, 3]
        assert log.app.snapshot() == 12

    def test_duplicate_same_value_noop(self):
        log = DecisionLog(CounterApp())
        log.record(1, b"INC")
        assert log.record(1, b"INC") == []
        assert log.app.snapshot() == 1

    def test_conflicting_decision_raises(self):
        log = DecisionLog(CounterApp())
        log.record(1, b"INC")
        with pytest.raises(RuntimeError):
            log.record(1, b"DEC")

    def test_result_tracking(self):
        log = DecisionLog(CounterApp())
        log.record(1, b"ADD:7")
        assert log.result_of(1) == b"7"
        assert log.result_of(2) is None

    def test_invalid_slot(self):
        log = DecisionLog(CounterApp())
        with pytest.raises(ValueError):
            log.record(0, b"INC")


class TestEncoding:
    def test_request_roundtrip(self):
        value = encode_request(12, 345, b"ADD:7")
        assert decode_request(value) == (12, 345, b"ADD:7")
        assert request_payload(value) == b"ADD:7"

    def test_bare_commands_pass_through(self):
        assert decode_request(b"INC") is None
        assert request_payload(b"INC") == b"INC"
        assert decode_request(NOOP) is None
        assert commands_in(b"INC") == [b"INC"]

    def test_equal_payloads_distinct_requests(self):
        a = encode_request(1, 1, b"INC")
        b = encode_request(2, 1, b"INC")
        c = encode_request(1, 2, b"INC")
        assert len({a, b, c}) == 3
        assert request_payload(a) == request_payload(b) == b"INC"

    def test_batch_roundtrip(self):
        commands = [b"INC", encode_request(3, 9, b"DEC"), b"ADD:5"]
        batch = encode_batch(commands)
        assert decode_batch(batch) == commands
        assert commands_in(batch) == commands

    def test_single_command_batch_is_bare(self):
        # Keeps logs identical whether batching is on or off when a slot
        # happens to order exactly one command.
        assert encode_batch([b"INC"]) == b"INC"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            encode_batch([])

    def test_malformed_frames_degrade_to_opaque(self):
        from repro.smr.encoding import BATCH_PREFIX, REQUEST_PREFIX

        assert decode_request(REQUEST_PREFIX + b"\xff") is None
        assert decode_batch(BATCH_PREFIX + b"\x01\x05") is None
        # Trailing garbage after a well-formed batch is rejected too.
        batch = encode_batch([b"a", b"b"])
        assert decode_batch(batch + b"junk") is None
        assert commands_in(batch + b"junk") == [batch + b"junk"]

    def test_large_ids(self):
        value = encode_request(2**40, 2**33, b"x")
        assert decode_request(value) == (2**40, 2**33, b"x")


class _ScrambledKV(KeyValueApp):
    """KeyValueApp whose snapshot is an insertion-ordered dict — equal
    contents, different iteration order (and therefore different repr)."""

    def __init__(self, items):
        super().__init__()
        self._seed_items = items
        for k, v in items:
            self.apply(b"SET " + k + b" " + v)

    def snapshot(self):
        return {k: v for k, v in self._seed_items}


class TestSnapshotComparison:
    def test_order_scrambled_snapshots_compare_equal(self):
        """Regression: repr-based comparison false-negatived on equal dicts
        with different insertion order; stable_encode does not."""
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, KeyValueApp, num_slots=1, seed=9)
        items = [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
        for r in dep.replicas:
            ordering = items if r % 2 == 0 else list(reversed(items))
            dep.replicas[r].log._app = _ScrambledKV(ordering)
        snapshots = dep.snapshots()
        assert repr(snapshots[0]) != repr(snapshots[1])  # the old trap
        assert dep.snapshots_consistent()

    def test_genuinely_different_snapshots_detected(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, KeyValueApp, num_slots=1, seed=9)
        dep.replicas[0].log._app = _ScrambledKV([(b"a", b"1")])
        dep.replicas[1].log._app = _ScrambledKV([(b"a", b"2")])
        assert not dep.snapshots_consistent()


class TestSMRIntegration:
    def test_counter_replication(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=4, seed=1)
        for cmd in (b"INC", b"ADD:5", b"DEC"):
            dep.submit_to_all(cmd)
        dep.run(max_time=20_000)
        assert dep.all_applied()
        assert dep.logs_consistent()
        assert dep.snapshots_consistent()
        # All three commands plus a NOOP filler were ordered.
        snapshot = list(dep.snapshots().values())[0]
        assert snapshot == 5

    def test_a_slot_every_three_steps(self):
        """n=20 at unit latency, one slot at a time: 3 steps a slot, so
        ~1/3 slot per time unit."""
        dep = SMRDeployment(ProtocolConfig(n=20, f=4), CounterApp, num_slots=10, seed=7)
        for i in range(8):
            dep.submit_to_all(b"ADD:%d" % i)
        dep.run(max_time=50_000)
        assert dep.all_applied() and dep.logs_consistent()
        assert dep.num_slots / dep.sim.now > 0.2

    def test_kv_replication(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, KeyValueApp, num_slots=3, seed=2)
        dep.submit_to_all(b"SET a 1")
        dep.submit_to_all(b"SET b 2")
        dep.submit_to_all(b"DEL a")
        dep.run(max_time=20_000)
        assert dep.all_applied()
        assert dep.snapshots_consistent()
        assert list(dep.snapshots().values())[0] == ((b"b", b"2"),)

    def test_empty_workload_fills_with_noops(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=2, seed=3)
        dep.run(max_time=20_000)
        assert dep.all_applied()
        for replica in dep.replicas.values():
            assert replica.log.value_of(1) == NOOP

    def test_silent_byzantine_members_tolerated(self):
        cfg = ProtocolConfig(n=10, f=2)
        dep = SMRDeployment(
            cfg, CounterApp, num_slots=3, seed=4,
            byzantine=dict.fromkeys([8, 9], silent_factory()),
        )
        dep.submit_to_all(b"INC")
        dep.run(max_time=40_000)
        assert dep.all_applied()
        assert dep.logs_consistent()

    def test_too_many_byzantine_rejected(self):
        with pytest.raises(ValueError):
            SMRDeployment(
                ProtocolConfig(n=7, f=2),
                CounterApp,
                num_slots=1,
                byzantine=dict.fromkeys([4, 5, 6], silent_factory()),
            )

    def test_slots_use_distinct_domains(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=2, seed=5)
        dep.run(max_time=20_000)
        replica = dep.replicas[0]
        slot1 = replica.slot_replica(1)
        slot2 = replica.slot_replica(2)
        assert slot1.config.seed_domain == "slot-1"
        assert slot2.config.seed_domain == "slot-2"

    def test_linearized_order_identical_across_replicas(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(cfg, CounterApp, num_slots=5, seed=6)
        for i in range(4):
            dep.submit_to_all(b"ADD:%d" % i)
        dep.run(max_time=40_000)
        orders = {
            tuple(r.log.value_of(s) for s in range(1, 6))
            for r in dep.replicas.values()
        }
        assert len(orders) == 1


class TestPipelining:
    def test_pipelined_run_is_faster(self):
        from repro.smr.service import SMRDeployment as Dep

        cfg = ProtocolConfig(n=10, f=2)
        seq = Dep(cfg, CounterApp, num_slots=6, seed=1, pipeline=1)
        seq.submit_to_all(b"INC")
        seq.run(max_time=50_000)
        pipe = Dep(cfg, CounterApp, num_slots=6, seed=1, pipeline=4)
        pipe.submit_to_all(b"INC")
        pipe.run(max_time=50_000)
        assert pipe.sim.now < seq.sim.now
        assert pipe.all_applied() and pipe.logs_consistent()
        assert pipe.snapshots_consistent()

    def test_pipelined_state_matches_sequential(self):
        from repro.smr.service import SMRDeployment as Dep

        cfg = ProtocolConfig(n=7, f=2)
        results = []
        for pipeline in (1, 3):
            dep = Dep(cfg, CounterApp, num_slots=5, seed=2, pipeline=pipeline)
            for i in range(4):
                dep.submit_to_all(b"ADD:%d" % (i + 1))
            dep.run(max_time=50_000)
            assert dep.all_applied()
            results.append(list(dep.snapshots().values())[0])
        # Same commands applied -> same final counter regardless of pipelining.
        assert results[0] == results[1]

    def test_invalid_pipeline_rejected(self):
        from repro.smr.replica import SMRReplica

        with pytest.raises(ValueError):
            SMRReplica(
                0,
                None,
                None,
                CounterApp(),
                stacks=None,
                pipeline=0,
            )

    def test_pipeline_with_byzantine_members(self):
        from repro.smr.service import SMRDeployment as Dep

        cfg = ProtocolConfig(n=10, f=2)
        dep = Dep(
            cfg, CounterApp, num_slots=4, seed=3, pipeline=3,
            byzantine=dict.fromkeys([8, 9], silent_factory()),
        )
        dep.submit_to_all(b"INC")
        dep.run(max_time=50_000)
        assert dep.all_applied()
        assert dep.logs_consistent()


class TestBatching:
    def commands(self, count=6):
        return [b"ADD:%d" % (i + 1) for i in range(count)]

    def test_batched_run_orders_all_commands(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(
            cfg, CounterApp, num_slots=3, seed=4, batch_size=4
        )
        for cmd in self.commands(8):
            dep.submit_to_all(cmd)
        dep.run(max_time=20_000)
        assert dep.all_applied()
        assert dep.logs_consistent() and dep.snapshots_consistent()
        assert list(dep.snapshots().values())[0] == sum(range(1, 9))

    def test_batched_commands_match_unbatched(self):
        """Batching changes slot packing, never the applied command stream:
        the flattened per-command sequence (and final state) is the same
        multiset on a small deployment whether batching is on or off."""
        cfg = ProtocolConfig(n=7, f=2)
        states, streams = [], []
        for batch_size, slots in ((1, 8), (4, 3)):
            dep = SMRDeployment(
                cfg, CounterApp, num_slots=slots, seed=5, batch_size=batch_size
            )
            for cmd in self.commands(6):
                dep.submit_to_all(cmd)
            dep.run(max_time=20_000)
            assert dep.all_applied()
            replica = dep.replicas[0]
            flattened = [
                cmd
                for s in range(1, slots + 1)
                for cmd in replica.log.commands_of(s)
                if cmd != NOOP
            ]
            streams.append(sorted(flattened))
            states.append(list(dep.snapshots().values())[0])
        assert streams[0] == streams[1]
        assert states[0] == states[1]

    def test_batch_applies_element_wise(self):
        log = DecisionLog(CounterApp())
        batch = encode_batch([b"INC", b"ADD:10", b"DEC"])
        assert log.record(1, batch) == [1]
        assert log.app.snapshot() == 10
        assert log.commands_of(1) == (b"INC", b"ADD:10", b"DEC")
        assert log.results_of(1) == (b"1", b"11", b"10")
        assert log.result_of(1) == b"10"  # last command's result

    def test_batch_strips_request_envelopes(self):
        log = DecisionLog(CounterApp())
        batch = encode_batch(
            [encode_request(1, 1, b"INC"), encode_request(2, 1, b"ADD:4")]
        )
        log.record(1, batch)
        assert log.app.snapshot() == 5

    def test_invalid_batch_size_rejected(self):
        from repro.smr.replica import SMRReplica

        with pytest.raises(ValueError):
            SMRReplica(
                0,
                None,
                None,
                CounterApp(),
                stacks=None,
                batch_size=0,
            )


class TestBackpressure:
    def test_submit_rejected_when_queue_full(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(
            cfg, CounterApp, num_slots=2, seed=6, max_pending=2
        )
        assert dep.submit_to_all(b"ADD:1")
        assert dep.submit_to_all(b"ADD:2")
        assert not dep.submit_to_all(b"ADD:3")  # wholesale rejection
        # Nothing was partially queued: every replica holds exactly 2.
        assert {
            r.pending_commands for r in dep.replicas.values()
        } == {2}
        assert all(r.rejected_submits == 1 for r in dep.replicas.values())

    def test_rejected_submission_can_retry_after_drain(self):
        cfg = ProtocolConfig(n=7, f=2)
        dep = SMRDeployment(
            cfg, CounterApp, num_slots=3, seed=6, max_pending=2
        )
        dep.submit_to_all(b"ADD:1")
        dep.submit_to_all(b"ADD:2")
        assert not dep.submit_to_all(b"ADD:3")
        dep.run(max_time=20_000)  # drains the queues
        assert dep.submit_to_all(b"ADD:3") or dep.all_applied()

    def test_invalid_max_pending_rejected(self):
        from repro.smr.replica import SMRReplica

        with pytest.raises(ValueError):
            SMRReplica(
                0,
                None,
                None,
                CounterApp(),
                stacks=None,
                max_pending=0,
            )
