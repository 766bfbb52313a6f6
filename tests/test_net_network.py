"""Tests for the partially synchronous network."""

import random
from array import array
from functools import partial

import pytest

from repro.errors import NotRegisteredError, SimulationError
from repro.net.faults import Partition, PreGstChaos
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.net.network import Network, message_type_name
from repro.net.simulator import Simulator
from repro.net.transport import Transport


def make_net(n=4, latency=None, gst=0.0, chaos=None):
    sim = Simulator()
    net = Network(sim, n, latency=latency or ConstantLatency(1.0), gst=gst, chaos=chaos)
    inboxes = {r: [] for r in range(n)}
    for r in range(n):
        net.register(r, lambda src, msg, r=r: inboxes[r].append((src, msg)))
    return sim, net, inboxes


class TestDelivery:
    def test_send_delivers_after_latency(self):
        sim, net, inboxes = make_net()
        t = net.send(0, 1, "hello")
        assert t == pytest.approx(1.0)
        sim.run()
        assert inboxes[1] == [(0, "hello")]

    def test_broadcast_excludes_self_by_default(self):
        sim, net, inboxes = make_net()
        net.broadcast(0, "m")
        sim.run()
        assert inboxes[0] == []
        assert all(inboxes[r] == [(0, "m")] for r in range(1, 4))

    def test_multicast(self):
        sim, net, inboxes = make_net()
        net.multicast(0, [1, 3], "m")
        sim.run()
        assert inboxes[1] == [(0, "m")]
        assert inboxes[2] == []
        assert inboxes[3] == [(0, "m")]

    def test_unregistered_destination_raises(self):
        sim = Simulator()
        net = Network(sim, 4)
        with pytest.raises(NotRegisteredError):
            net.send(0, 1, "m")

    def test_register_out_of_range(self):
        sim = Simulator()
        net = Network(sim, 4)
        with pytest.raises(NotRegisteredError):
            net.register(7, lambda s, m: None)


class TestTargetsAreChecked:
    """A target that is no registered replica — ``-1``, ``n``, an id that
    is not an int — is refused at send on every path, before anything is
    queued or counted (dense delivery refuses it at send too)."""

    PATHS = {
        "dense": {},
        "constant": {"coalesced": True},
        "exponential": {"coalesced": True, "latency": ExponentialLatency(seed=1)},
        "uniform": {"coalesced": True, "latency": UniformLatency(seed=1)},
        "chaos": {"coalesced": True, "chaos": PreGstChaos(seed=1), "gst": 50.0},
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("bad", [-1, 4, 99, "2", 1.5, None])
    def test_a_bad_target_queues_nothing(self, path, bad):
        options = dict(self.PATHS[path])
        coalesced = options.pop("coalesced", False)
        sim, net, inboxes = make_net(**options)
        if coalesced:
            net.use_kernel({})
        targets = [bad, 3] if path == "dense" else [1, bad, 3]
        with pytest.raises(NotRegisteredError):
            net.multicast(0, targets, "m")
        assert sim.pending_events == 0 and sim._heap == []
        assert net.stats.sent_total == 0
        net.multicast(0, [1, 3], "m")  # the network still works
        sim.run()
        assert inboxes[1] == inboxes[3] == [(0, "m")] and inboxes[2] == []

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_an_empty_fan_out_queues_nothing(self, path):
        options = dict(self.PATHS[path])
        coalesced = options.pop("coalesced", False)
        sim, net, _ = make_net(**options)
        if coalesced:
            net.use_kernel({})
        net.multicast(0, [], "m")
        assert sim.pending_events == 0 and sim._heap == [] and net.stats.sent_total == 0

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize(
        "code, bad, size",
        [("H", 4, 3), ("H", 4, 80), ("h", -1, 3), ("i", -1, 3), ("i", -1, 80), ("I", 2**16, 3)],
        ids=["n", "n-long", "h-minus-1", "i-minus-1", "i-minus-1-long", "I-2**16"],
    )
    def test_a_bad_id_array_queues_nothing(self, path, code, bad, size):
        """An id array is checked like any target sequence: by its type and
        one upper bound (a long one by numpy) on a fully wired network,
        converted first if it is not the network's (a signed one's -1)."""
        options = dict(self.PATHS[path])
        coalesced = options.pop("coalesced", False)
        sim, net, inboxes = make_net(**options)
        if coalesced:
            net.use_kernel({})
        ids = [bad] + [1, 3] * (size // 2) if path == "dense" else [1, 3] * (size // 2) + [bad]
        with pytest.raises(NotRegisteredError, match=f"replica {bad}"):
            net.multicast(0, array(code, ids), "m")
        assert sim.pending_events == 0 and sim._heap == []
        assert net.stats.sent_total == 0
        net.multicast(0, array("H", [1, 3]), "m")  # the network still works
        sim.run()
        assert inboxes[1] == inboxes[3] == [(0, "m")] and inboxes[2] == []

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_an_empty_id_array_queues_nothing(self, path):
        options = dict(self.PATHS[path])
        coalesced = options.pop("coalesced", False)
        sim, net, _ = make_net(**options)
        if coalesced:
            net.use_kernel({})
        net.multicast(0, array("H"), "m")
        assert sim.pending_events == 0 and sim._heap == [] and net.stats.sent_total == 0

    @pytest.mark.parametrize("path", ["constant", "exponential", "chaos"])
    def test_an_id_array_on_a_partly_wired_network(self, path):
        """Until every replica is registered, an array's ids are looked up."""
        options = dict(self.PATHS[path])
        options.pop("coalesced")
        sim = Simulator()
        net = Network(sim, 4, **options)
        for r in range(3):
            net.register(r, lambda src, msg: None)
        net.use_kernel({})
        with pytest.raises(NotRegisteredError, match="replica 3"):
            net.multicast(0, array("H", [1, 3, 2]), "m")
        assert sim.pending_events == 0 and net.stats.sent_total == 0
        net.multicast(0, array("H", [1, 2]), "m")
        assert net.stats.sent_total == 2

    def test_a_constant_fan_out_queues_its_id_array_itself(self):
        """A shared delay is one bucket, and its recipients are the very
        array sent (a VRF sample is never copied); any other sequence is
        converted once into the network's id array."""
        sim, net, _ = make_net(n=300)
        net.use_kernel({})
        sample = array("H", [5, 299, 7])
        net.multicast(0, sample, "m")
        (entry,) = sim._heap
        assert entry[4][2] is sample
        sim.clear()
        for targets in ([5, 299, 7], (5, 299, 7), iter([5, 299, 7]), array("I", [5, 299, 7])):
            net.multicast(0, targets, "m")
            (entry,) = sim._heap
            recipients = entry[4][2]
            assert type(recipients) is array and recipients.typecode == "H"
            assert recipients.tolist() == [5, 299, 7]
            sim.clear()

    @pytest.mark.parametrize("path", ["constant", "exponential", "chaos"])
    def test_a_broadcast_checks_what_is_not_registered(self, path):
        """A broadcast's targets are ``range(n)``: checked like any fan-out's
        (a replica not registered yet is no target)."""
        options = dict(self.PATHS[path])
        options.pop("coalesced")
        sim = Simulator()
        net = Network(sim, 4, **options)
        for r in range(3):
            net.register(r, lambda src, msg: None)
        net.use_kernel({})
        with pytest.raises(NotRegisteredError, match="replica 3"):
            net.broadcast(0, "m")
        assert sim.pending_events == 0 and net.stats.sent_total == 0
        net.register(3, lambda src, msg: None)
        net.broadcast(0, "m")
        assert net.stats.sent_total == 3

    def test_a_duplicating_network_checks_too(self):
        sim = Simulator()
        net = Network(sim, 4, duplicate_prob=0.5)
        for r in range(4):
            net.register(r, lambda src, msg: None)
        net.use_kernel({})
        with pytest.raises(NotRegisteredError):
            net.multicast(0, [1, -1], "m")
        assert sim.pending_events == 0 and net.stats.sent_total == 0


class _Quantized(LatencyModel):
    """Delays of three values: the default per-target ``delays``, and ties
    in every fan-out."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def delay(self, src, dst):
        return self._rng.choice([0.5, 1.0, 1.5])

    @property
    def max_delay(self):
        return 1.5


def _reference_draws(name):
    """``(model, draw)``: a model and, independently of its code, the delay
    each of its draws must give, by the library calls and the builtins."""
    if name == "constant":
        return ConstantLatency(2.0), lambda: 2.0
    if name == "quantized":
        rng = random.Random(5)
        return _Quantized(5), lambda: rng.choice([0.5, 1.0, 1.5])
    if name.startswith("uniform"):
        low, high = {"uniform": (0.5, 1.5), "uniform-floor": (1e-15, 1e-13)}[name]
        rng = random.Random("uniform-latency:3")
        return UniformLatency(low, high, seed=3), lambda: rng.uniform(low, high)
    mean, cap = {
        "exponential": (1.0, 5.0),
        "exponential-capped": (1.0, 1.0),  # a third of the draws tie on the cap
        "exponential-floor": (1e-9, 1e-8),  # most draws clamped up to 1e-9
        "exponential-cap-below-floor": (1e-10, 5e-10),
    }[name]
    rng = random.Random("exponential-latency:3")
    return (
        ExponentialLatency(mean=mean, cap=cap, seed=3),
        lambda: min(max(rng.expovariate(1 / mean), 1e-9), cap),
    )


class TestFanOutRecords:
    """What a coalesced fan-out queues — its ``(time, seq, recipients)``
    records — is what the per-target rule gives: one draw per target in
    target order, the delivery ``max(min(now + delay, max(now, GST) + Δ),
    now + 1e-12)``, targets of one time in one bucket (first-seen order,
    numbered in that order), whatever the model answers a fan-out with."""

    N = 40

    @staticmethod
    def _queued(sim):
        (entry,) = sim._heap
        records = [(entry[0], entry[1], entry[4])] + list(reversed(entry[5] or []))
        first = min(seq for _, seq, _ in records)
        return sorted(
            (time, seq - first, list(item[2])) for time, seq, item in records
        )

    @staticmethod
    def _expected(draw, now, gst, delta, dsts):
        deadline, buckets = max(now, gst) + delta, {}
        for dst in dsts:
            time = max(min(now + draw(), deadline), now + 1e-12)
            buckets.setdefault(time, []).append(dst)
        return sorted(
            (time, seq, group) for seq, (time, group) in enumerate(buckets.items())
        )

    @pytest.mark.parametrize(
        "name",
        [
            "constant", "quantized", "uniform", "uniform-floor", "exponential",
            "exponential-capped", "exponential-floor", "exponential-cap-below-floor",
        ],
    )
    @pytest.mark.parametrize("epoch", [0.0, 1e15])  # (1e15 + x rounds to 1/8ths: ties)
    def test_records_equal_the_per_target_rule(self, name, epoch):
        model, draw = _reference_draws(name)
        rng = random.Random(f"{name}:{epoch}")
        sim, net, _ = make_net(self.N, latency=model, gst=epoch + 30.0)
        net.use_kernel({})
        sim.schedule_at(epoch, lambda: None)
        sim.run()
        ties = 0
        for _ in range(150):
            sim.schedule_at(sim.now + rng.choice([0.0, 0.5, rng.random() * 10]), lambda: None)
            sim.run()
            dsts = rng.sample(range(self.N), rng.randint(1, self.N))
            if rng.random() < 0.3:
                dsts = tuple(dsts)
            expected = self._expected(draw, sim.now, net.gst, net.max_delay, dsts)
            net.multicast(rng.randrange(self.N), dsts, "m")
            assert self._queued(sim) == expected
            ties += sum(len(group) > 1 for _, _, group in expected)
            sim.clear()
        if epoch == 0.0 and name in ("uniform", "exponential"):
            return  # (continuous draws: no tie to reach)
        assert ties > 0  # (the case reaches its ties)

    def test_a_nan_delay_is_refused_with_nothing_queued(self):
        class Broken(LatencyModel):
            def delay(self, src, dst):
                return float("nan") if dst == 2 else 1.0

            @property
            def max_delay(self):
                return 5.0

        sim, net, inboxes = make_net(latency=Broken())
        net.use_kernel({})
        with pytest.raises(SimulationError):
            net.multicast(0, [1, 2, 3], "m")
        assert sim.pending_events == 0 and sim._heap == []
        assert net.stats.sent_total == 0
        net.multicast(0, [1, 3], "m")
        sim.run()
        assert inboxes[1] == inboxes[3] == [(0, "m")]


class TestPartialSynchrony:
    def test_post_gst_delivery_within_delta(self):
        sim, net, _ = make_net(latency=UniformLatency(0.5, 2.0, seed=1), gst=0.0)
        for _ in range(200):
            t = net.send(0, 1, "m")
            assert t <= sim.now + 2.0

    def test_pre_gst_messages_delivered_by_gst_plus_delta(self):
        sim, net, inboxes = make_net(
            latency=ConstantLatency(1.0),
            gst=50.0,
            chaos=PreGstChaos(max_extra=1000.0, seed=2),
        )
        deliveries = [net.send(0, 1, f"m{i}") for i in range(100)]
        assert all(t <= 51.0 for t in deliveries)
        sim.run()
        assert len(inboxes[1]) == 100

    def test_partition_heals_before_gst(self):
        sim, net, inboxes = make_net(
            latency=ConstantLatency(1.0),
            gst=30.0,
            chaos=Partition(group_a=[0, 1], heal_time=20.0),
        )
        t = net.send(0, 2, "cross")
        assert 20.0 <= t <= 31.0
        t2 = net.send(0, 1, "same-side")
        assert t2 == pytest.approx(1.0)

    def test_delivery_strictly_in_future(self):
        sim, net, _ = make_net()
        t = net.send(0, 1, "m")
        assert t > sim.now


class TestStats:
    def test_counts_by_type_and_total(self):
        class Ping:
            TYPE = "Ping"

        sim, net, _ = make_net()
        net.send(0, 1, Ping())
        net.broadcast(2, Ping())
        sim.run()
        assert net.stats.sent("Ping") == 4
        assert net.stats.sent_total == 4
        assert net.stats.delivered_total == 4
        assert net.stats.sent_by_replica[2] == 3

    def test_summary_sorted_with_total(self):
        sim, net, _ = make_net()
        net.send(0, 1, "x")
        summary = net.stats.summary()
        assert summary["TOTAL"] == 1

    def test_message_type_name_unwraps_signed(self):
        from repro.crypto.context import CryptoContext
        from repro.sync.synchronizer import Wish

        crypto = CryptoContext.create(4)
        signed = crypto.signatures.sign(0, Wish(view=1))
        assert message_type_name(signed) == "Wish"

    def test_message_type_name_plain(self):
        assert message_type_name("x") == "str"


class TestTransport:
    def test_transport_binds_source(self):
        sim, net, inboxes = make_net()
        t = Transport(net, 2)
        t.send(0, "m")
        t.broadcast("b")
        sim.run()
        assert (2, "m") in inboxes[0]
        assert (2, "b") in inboxes[1]
        assert all(m != (2, "b") for m in inboxes[2])

    def test_transport_properties(self):
        sim, net, _ = make_net()
        t = Transport(net, 2)
        assert t.replica == 2
        assert t.n == 4
        assert t.now == 0.0

    def test_transport_schedule(self):
        sim, net, _ = make_net()
        t = Transport(net, 0)
        fired = []
        t.schedule(5.0, lambda: fired.append(t.now))
        sim.run()
        assert fired == [5.0]


class TestCopiesLandAfterTheirOriginals:
    """What lets the kernels take a duplicating network's buckets: a copy
    lands strictly after its original (every latency model's delay is
    positive, and a copy's deadline is a Δ after its original's), so a
    coalesced bucket lists each recipient once."""

    N, GST, DELTA = 16, 5.0, 2.0
    LATENCIES = {
        "constant": lambda: ConstantLatency(2.0),
        "uniform": lambda: UniformLatency(low=0.5, high=2.0, seed=3),
        "exponential": lambda: ExponentialLatency(mean=0.5, cap=2.0, seed=3),
    }

    def _broadcasts(self, latency, coalesced):
        """Every replica broadcasts at t = 0, 1, ..., 9 on a network that
        copies 90% of deliveries, its pre-GST chaos pushing originals onto
        their deadline.  Answers, per broadcast, the buckets posted
        (coalesced) or each target's ``(send time, dst, original, copy)``
        as the per-message path schedules them (``copy`` None: none)."""
        sim = Simulator()
        net = Network(
            sim, self.N, latency=self.LATENCIES[latency](), gst=self.GST,
            chaos=PreGstChaos(max_extra=50.0, seed=2),
            duplicate_prob=0.9, duplicate_seed=4,
        )
        for r in range(self.N):
            net.register(r, lambda src, msg: None)
        fan_outs = []

        def broadcast(r):
            fan_outs.append([])
            net.broadcast(r, ("m", r))

        for t in range(10):
            for r in range(self.N):
                sim.schedule_at(float(t), partial(broadcast, r))
        if coalesced:
            net.use_kernel({})  # every bucket to the per-recipient loop
            post_all = sim.post_all

            def posted(receiver, times, items):
                fan_outs[-1] += [(time, dsts) for time, (_, _, dsts) in zip(times, items)]
                post_all(receiver, times, items)

            sim.post_all = posted
        else:
            schedule_at, send, times = sim.schedule_at, net.send, []

            def scheduled(time, callback):
                times.append(time)
                return schedule_at(time, callback)

            def sent(src, dst, message):
                times.clear()
                original = send(src, dst, message)
                copy = times[1] if len(times) > 1 else None
                fan_outs[-1].append((sim.now, dst, original, copy))
                return original

            sim.schedule_at, net.send = scheduled, sent
        sim.run()
        return fan_outs

    @pytest.mark.parametrize("latency", sorted(LATENCIES))
    def test_a_bucket_lists_each_recipient_once(self, latency):
        dense = self._broadcasts(latency, coalesced=False)
        coalesced = self._broadcasts(latency, coalesced=True)
        assert len(dense) == len(coalesced) == 10 * self.N
        clamped = copied = 0
        for deliveries, buckets in zip(dense, coalesced):
            for now, dst, original, copy in deliveries:
                deadline = max(now, self.GST) + self.DELTA
                clamped += now < self.GST and original == deadline
                if copy is not None:
                    copied += 1
                    assert original < copy <= deadline + self.DELTA
            for _, dsts in buckets:
                assert len(set(dsts)) == len(dsts)
            # The same draws: the buckets hold the per-message path's deliveries.
            assert sorted(
                (time, dst) for time, dsts in buckets for dst in dsts
            ) == sorted(
                (time, dst)
                for _, dst, original, copy in deliveries
                for time in (original, copy)
                if time is not None
            )
        assert clamped > 1000 and copied > 0.85 * len(dense) * (self.N - 1)


class TestDuplication:
    def make_dup_net(self, prob, n=4, latency=None, gst=0.0, seed=0):
        sim = Simulator()
        net = Network(
            sim,
            n,
            latency=latency or ConstantLatency(1.0),
            gst=gst,
            duplicate_prob=prob,
            duplicate_seed=seed,
        )
        inboxes = {r: [] for r in range(n)}
        for r in range(n):
            net.register(r, lambda src, msg, r=r: inboxes[r].append((src, msg)))
        return sim, net, inboxes

    # duplicate_prob=1.0 is rejected (it would make "at least once" mean
    # "exactly twice"); 1 - 1e-6 is deterministically always-duplicate for
    # the seeded streams used here.
    ALWAYS = 1.0 - 1e-6

    def test_prob_one_duplicates_every_send(self):
        sim, net, inboxes = self.make_dup_net(self.ALWAYS)
        net.send(0, 1, "m")
        sim.run()
        assert inboxes[1] == [(0, "m"), (0, "m")]
        assert net.stats.delivered_total == 2
        assert net.stats.sent_total == 1  # dups are network noise, not sends

    def test_prob_zero_never_duplicates(self):
        sim, net, inboxes = self.make_dup_net(0.0)
        for _ in range(20):
            net.send(0, 1, "m")
        sim.run()
        assert len(inboxes[1]) == 20

    def test_duplicate_uses_fresh_latency_draw(self):
        # With constant latency the duplicate lands exactly one delay after
        # the original.
        sim, net, inboxes = self.make_dup_net(self.ALWAYS, latency=ConstantLatency(2.0))
        net.send(0, 1, "m")
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(("orig", len(inboxes[1]))))
        sim.schedule_at(4.0, lambda: fired.append(("dup", len(inboxes[1]))))
        sim.run()
        assert fired == [("orig", 1), ("dup", 2)]

    def test_duplicate_bounded_by_two_delta_from_send_time(self):
        # Pre-GST chaos can push the original to its deadline; the duplicate
        # must still respect max(now, GST) + 2Δ stated from the send time,
        # and must never land before the original.
        sim, net, inboxes = self.make_dup_net(
            self.ALWAYS, latency=UniformLatency(low=1.0, high=5.0, seed=3), gst=0.0
        )
        deliveries = []
        net.register(1, lambda src, msg: deliveries.append(sim.now))
        for _ in range(50):
            sim_now = sim.now
            net.send(0, 1, "m")
            bound = max(sim_now, net.gst) + 2 * net.max_delay
            sim.run()
            assert len(deliveries) == 2
            orig, dup = deliveries
            assert orig <= dup <= bound + 1e-9
            deliveries.clear()

    def test_duplicate_stream_is_seeded(self):
        def pattern(seed):
            sim, net, inboxes = self.make_dup_net(0.5, seed=seed)
            for _ in range(40):
                net.send(0, 1, "m")
            sim.run()
            return len(inboxes[1])

        assert pattern(7) == pattern(7)  # deterministic per seed
        counts = {pattern(s) for s in range(8)}
        assert len(counts) > 1  # and the seed actually matters
