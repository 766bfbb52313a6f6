"""The vote kernel's array pass and its scalar walk: a group of buckets —
or a chain of one-recipient buckets — in one call must be indistinguishable
from the same buckets delivered one call each, whichever route it takes.

A *group* is what :class:`~repro.core.columnar.ColumnarVoteDispatch` takes
out of a run in one call: consecutive buckets of one (phase, view, value)
from distinct signers, applied by an array pass at or above the break-even
(``_PASS_MIN_VOTES``) and walked below it.  The property test drives three
identical fixtures — real votes, real tokens, scripted replicas — with the
same random run: through the run-shaped call with every group passed, with
every group walked, and one bucket by bucket, and compares everything a
trial could observe.  The trial-level tests pin the cases the
random groups cannot stage: whole deployments against counters recorded
from the parent commit, a slot retiring and a view flagged equivocal from
inside a group.  A *chain* is what the kernel's scalar branch walks under
continuous latency: consecutive valid one-recipient votes of any phase,
view and value, each entered through ``advance`` — at the end of the run
that is the simulator handing over the queue's next entry.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.config import ProtocolConfig
from repro.core.columnar import (
    ColumnarCollectorTable,
    ColumnarVoteDispatch,
    ColumnarVoteState,
)
from repro.core.replica import ProBFTReplica
from repro.crypto.signatures import Signed
from repro.harness.registry import ADVERSARIES, MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext
from repro.sync.synchronizer import Wish

from .helpers import (
    make_commit,
    make_crypto,
    make_prepare,
    make_propose,
    make_statement,
    reference_spec,
)

VIEW = 2  # the view the fixtures' replicas are in: view 1 is behind it


class _Replica:
    """What the kernel touches of a replica, scripted: a quorum handler
    moves most replicas on (as a voted replica commits the view, a prepared
    one decides) and leaves some where they were (one that has not voted)."""

    def __init__(self, rid, state, log):
        self.id, self._state, self._log = rid, state, log
        self.buffered = []
        self._prepare_collectors = ColumnarCollectorTable(state, True, rid)
        self._commit_collectors = ColumnarCollectorTable(state, False, rid)

    def _buffer_future(self, view, src, message):
        self.buffered.append((view, src, message))

    def _try_form_prepared(self):
        self._log.append(("prepared", self.id))
        if self.id % 3:
            self._state.note_committed(self.id)

    def _try_decide(self):
        self._log.append(("decided", self.id))
        if self.id % 4:
            self._state.note_decided(self.id)


class _Fixture:
    """One kernel over fresh columns; ``shape`` says who is where."""

    def __init__(self, config, crypto, shape):
        n = config.n
        byzantine = shape["byzantine"]
        correct = frozenset(range(n)) - byzantine
        self.log = []
        self.state = state = ColumnarVoteState(n, config.q, correct)
        self.replicas = {r: _Replica(r, state, self.log) for r in correct}
        for r in correct:
            view = shape["views"][r]
            if view:
                state.note_view(r, view, committed=r in shape["committed"])
            if r in shape["blocked"]:
                state.note_blocked(r)
        self.flag_at = None  # the log length at which a seat flags VIEW

        def byzantine_handler(b):
            def handle(src, message):
                self.log.append(("byz", b, src, message))
                if len(self.log) == self.flag_at:
                    self.kernel._equivocal.add(VIEW)  # as ``inspect`` would

            return handle

        handlers = {b: byzantine_handler(b) for b in byzantine}
        self.kernel = ColumnarVoteDispatch(
            config, crypto, self.replicas, correct, handlers, state,
            token=ProBFTReplica.vote_token, votes=ProBFTReplica.VOTES,
        )

    def stop_after(self, stops):
        return lambda: len(self.log) >= stops

    def deliver_run(self, run, probe, stop):
        """As :meth:`Network.deliver_run` would: groups, boundaries."""
        def advance(k):
            return k < len(run) and not stop()

        counts, pos = [], 0
        while True:
            took = self.kernel(run, pos, probe, advance)
            assert len(took) >= 1 and -1 not in took[:-1]
            counts.extend(took)
            pos += len(took)
            if not advance(pos):
                return counts

    def deliver_chained(self, pending, stop, refuse_at, sliced):
        """As the simulator and :meth:`Network.deliver_run` would under
        ``run()``: the run starts as ``pending[0]`` and grows by one bucket
        whenever ``advance`` is asked at its end — until the boundary
        ``refuse_at``.  ``sliced(pos)`` says whether this call goes through a
        router, which hands the kernel its own copy of the run's tail."""
        run, entered = [pending[0]], 1

        def advance(k):
            nonlocal entered
            if k < entered:
                return True
            if k == refuse_at or stop():
                return False
            if k == len(run):
                if k == len(pending):
                    return False
                run.append(pending[k])
            entered = k + 1
            return True

        counts, pos = [], 0
        while True:
            if sliced(pos):
                took = self.kernel(run[pos:], 0, None, lambda k, pos=pos: advance(pos + k))
            else:
                took = self.kernel(run, pos, None, advance)
            assert len(took) >= 1 and -1 not in took[:-1]
            counts.extend(took)
            pos += len(took)
            if not advance(pos):
                return counts

    def deliver_each(self, run, probe, stop):
        """One call per bucket, ``stop`` asked between two buckets."""
        counts = []
        for bucket in run:
            counts.extend(self.kernel([bucket], 0, probe, lambda k: False))
            if stop():
                break
        return counts

    def observable(self):
        # (A pass allocates its key's slot before it finds nobody counts; a
        # walk, at the first vote that does.)
        slots = {
            key: (
                slot.counts.tolist(),
                slot.fired.tolist(),
                slot.seen.tolist(),
                None if slot.order is None else slot.order.tolist(),
                slot.msg_by_signer,
            )
            for key, slot in self.state._slots.items()
            if slot.counts.any()
        }
        columns = [
            column.tolist()
            for column in (
                self.state.views, self.state.decided,
                self.state.prepare_active, self.state.commit_active,
            )
        ]
        buffered = {r: replica.buffered for r, replica in self.replicas.items()}
        return slots, columns, buffered


def _random_case(rng):
    """``(config, crypto, shape, warmup, run)``: a phase in the making."""
    n = rng.choice([9, 16, 40, 70, 100, 130])
    config = ProtocolConfig(n=n, f=(n - 1) // 3)
    crypto = make_crypto(config).instance(config)
    byzantine = frozenset(
        rng.sample(range(n), rng.randint(1, max(1, config.f // 2)))
        if rng.random() < 0.7
        else ()
    )
    correct = sorted(frozenset(range(n)) - byzantine)
    views = {}
    for r in correct:
        # Mostly in VIEW; some behind it (they buffer), ahead of it (they
        # drop), or not started.
        views[r] = rng.choices([VIEW, VIEW - 1, VIEW + 1, 0], [0.85, 0.07, 0.05, 0.03])[0]
    shape = {
        "byzantine": byzantine,
        "views": views,
        "committed": {r for r in correct if rng.random() < 0.05},
        "blocked": {r for r in correct if rng.random() < 0.03},
    }
    statements = {
        (view, value): make_statement(crypto, config, view, value)
        for view in (VIEW, VIEW + 1)
        for value in (b"x", b"y")
    }
    # The phase: one kind of vote from most senders, in id order; now and
    # then something else cuts the run into groups.
    phase = rng.choice([make_prepare, make_commit])
    buckets, sent = [], []
    for signer in rng.sample(range(n), rng.randint(n // 2, n)):
        roll = rng.random()
        if roll < 0.04:
            make, key = phase, (VIEW, b"y")  # another value
        elif roll < 0.08:
            make, key = phase, (VIEW + 1, b"x")  # a view nobody is in yet
        elif roll < 0.12:
            make = make_commit if phase is make_prepare else make_prepare
            key = (VIEW, b"x")
        else:
            make, key = phase, (VIEW, b"x")
        vote = make(crypto, config, signer, statements[key])
        sample = [d for d in vote.payload.sample.sample if d != signer]
        src, dsts = signer, sample
        if signer in byzantine:
            roll = rng.random()
            if roll < 0.3:  # to whoever it likes, members or not
                dsts = rng.sample(range(n), rng.randint(2, n - 1))
            elif roll < 0.5:  # relayed by another Byzantine seat
                src = rng.choice(sorted(byzantine))
            elif roll < 0.6:  # a forged envelope: declined
                vote = Signed(vote.payload, signer, b"\x01" * 32)
        elif rng.random() < 0.1:
            dsts = sample[: rng.randint(1, len(sample))]  # one recipient at times
        buckets.append((src, vote, dsts))
        sent.append((src, vote, dsts))
        if byzantine and rng.random() < 0.06:
            buckets.append(rng.choice(sent))  # a replayed envelope
        if rng.random() < 0.03:
            wish = crypto.signatures.sign(signer, Wish(view=VIEW + 1))
            buckets.append((signer, wish, [d for d in range(n) if d != signer]))
    cut = rng.randint(0, len(buckets) - 1)
    return config, crypto, shape, buckets[:cut], buckets[cut:]


def _route_counters(fixture):
    """What does not depend on the route: buckets reached, buckets declined."""
    stats = fixture.kernel.stats()
    return stats["vectorised"] + stats["walked"], stats["declined"]


class TestGroupEqualsBuckets:
    @pytest.mark.parametrize("block", range(6))
    def test_random_runs(self, block, monkeypatch):
        """≥ 300 random runs, each delivered three ways — every group as an
        array pass (break-even 0), every group walked (break-even ∞), one
        bucket per call: arrays, retained messages, buffers, stop order,
        per-bucket delivered counts and the route-independent counters are
        equal.

        When the run is cut short (the probe, a boundary) the pass has
        applied the votes of buckets it did not reach — over-applied,
        unobservable — so the arrays are compared on complete runs only."""
        from repro.core import columnar

        rng = random.Random(9_000 + block)
        grouped = cut_short = quorums = 0
        for _ in range(60):
            config, crypto, shape, warmup, run = _random_case(rng)
            passed, walked, each = (_Fixture(config, crypto, shape) for _ in range(3))
            never = lambda: False
            for fixture in (passed, walked, each):  # identical pasts, bucket by bucket
                fixture.deliver_each(warmup, None, never)
            assert passed.observable() == each.observable() and passed.log == each.log
            mode = rng.choice(["complete", "complete", "probe", "boundary"])
            past = len(passed.log)
            stops = past + rng.randint(1, 12)
            results = []
            for fixture, deliver, min_votes in (
                (passed, passed.deliver_run, 0),
                (walked, walked.deliver_run, float("inf")),
                (each, each.deliver_each, columnar._PASS_MIN_VOTES),
            ):
                monkeypatch.setattr(columnar, "_PASS_MIN_VOTES", min_votes)
                stop = never if mode == "complete" else fixture.stop_after(stops)
                probe = stop if mode == "probe" else None
                results.append(deliver(run, probe, stop))
                monkeypatch.undo()
            assert results[0] == results[1] == results[2], (block, mode)
            assert passed.log == walked.log == each.log
            assert _route_counters(passed) == _route_counters(walked) == _route_counters(each)
            if mode == "complete" or len(passed.log) < stops:  # (never cut)
                assert passed.observable() == walked.observable() == each.observable()
            else:
                cut_short += 1
            # A pass per group, a walk per group or chain, a call per bucket.
            reached = _route_counters(each)[0]
            stats = each.kernel.stats()
            assert stats["vote_passes"] + stats["vote_chains"] == reached
            assert walked.kernel.passes == walked.kernel.vectorised == 0
            assert walked.kernel.walks <= walked.kernel.walked == reached
            passes = passed.kernel.passes
            assert passes <= passed.kernel.vectorised <= reached
            grouped += passes < passed.kernel.vectorised
            quorums += any(kind != "byz" for kind, *_ in passed.log[past:])
        # The generator reaches what it is meant to reach.
        assert grouped >= 30 and cut_short >= 8 and quorums >= 20, (
            grouped, cut_short, quorums,
        )

    @pytest.mark.parametrize("block", range(2))
    def test_a_view_flagged_inside_a_walked_group_ends_it(self, block, monkeypatch):
        """A Byzantine recipient's handler flags the view from inside a
        walked group: the walk declines at the next boundary, as one call
        per bucket does (an array pass would run the group to its end)."""
        from repro.core import columnar

        monkeypatch.setattr(columnar, "_PASS_MIN_VOTES", float("inf"))
        rng = random.Random(9_500 + block)
        cut_by_flag = 0
        for _ in range(60):
            config, crypto, shape, warmup, run = _random_case(rng)
            if not shape["byzantine"]:
                continue
            walked, each = _Fixture(config, crypto, shape), _Fixture(config, crypto, shape)
            never = lambda: False
            flag_at = rng.randint(1, 4)
            for fixture in (walked, each):
                fixture.deliver_each(warmup, None, never)
                fixture.flag_at = len(fixture.log) + flag_at
            counts = walked.deliver_run(run, None, never)
            assert counts == each.deliver_each(run, None, never)
            assert walked.log == each.log and walked.observable() == each.observable()
            assert walked.kernel._equivocal == each.kernel._equivocal
            assert _route_counters(walked) == _route_counters(each)
            cut_by_flag += -1 in counts and walked.kernel.walks < walked.kernel.walked
        assert cut_by_flag >= 10, cut_by_flag

    def test_pass_size_is_bounded(self, monkeypatch):
        """A phase larger than one pass is several passes, same result — on
        a phase whose groups are above the break-even (n=130, 40 votes a
        bucket), cut into pieces that are too (a piece's last bucket would
        take it past break-even + one bucket; a group's last piece may be
        walked)."""
        from repro.core import columnar

        rng = random.Random(77)
        while True:
            config, crypto, shape, warmup, run = _random_case(rng)
            if config.n == 130:
                break
        whole, pieces = _Fixture(config, crypto, shape), _Fixture(config, crypto, shape)
        never = lambda: False
        counts = whole.deliver_run(warmup + run, None, never)
        assert whole.kernel.passes > 0
        cap = columnar._PASS_MIN_VOTES + config.sample_size
        monkeypatch.setattr(columnar, "_PASS_VOTES", cap)
        assert pieces.deliver_run(warmup + run, None, never) == counts
        assert pieces.observable() == whole.observable() and pieces.log == whole.log
        assert pieces.kernel.passes > whole.kernel.passes
        assert _route_counters(pieces) == _route_counters(whole)

    def test_a_group_crosses_a_bitmap_word(self):
        """Signers 60..69 in one group: bits of two words in one scatter."""
        config = ProtocolConfig(n=130, f=43)
        crypto = make_crypto(config).instance(config)
        shape = {
            "byzantine": frozenset(), "views": dict.fromkeys(range(130), VIEW),
            "committed": set(), "blocked": set(),
        }
        fixture = _Fixture(config, crypto, shape)
        statement = make_statement(crypto, config, VIEW, b"x")
        run = []
        for signer in range(60, 70):
            vote = make_prepare(crypto, config, signer, statement)
            run.append((signer, vote, [d for d in vote.payload.sample.sample if d != signer]))
        counts = fixture.deliver_run(run, None, lambda: False)
        assert counts == [len(dsts) for _, _, dsts in run]
        assert fixture.kernel.stats()["vote_passes"] == 1
        slot = fixture.state.peek(True, VIEW, b"x")
        for signer, _, dsts in run:
            column = slot.seen[signer >> 6, dsts] >> np.uint64(signer & 63)
            assert (column & np.uint64(1)).all()
        assert int(slot.counts.sum()) == sum(counts)


def _random_chain(rng, config, crypto, shape):
    """One-recipient buckets in the order jitter would deliver them: the
    votes of a few senders, Prepare and Commit, two views, two values, every
    (vote, recipient) pair its own bucket, shuffled — and in the middle of
    them what ends a chain."""
    n, byzantine = config.n, shape["byzantine"]
    statements = {
        (view, value): make_statement(crypto, config, view, value)
        for view in (VIEW, VIEW + 1)
        for value in (b"x", b"y")
    }
    deliveries, others = [], []
    for signer in rng.sample(range(n), rng.randint(3, min(n, 10))):
        for make in rng.sample([make_prepare, make_commit], rng.randint(1, 2)):
            key = rng.choices(
                [(VIEW, b"x"), (VIEW, b"y"), (VIEW + 1, b"x")], [0.8, 0.1, 0.1]
            )[0]
            vote = make(crypto, config, signer, statements[key])
            src = signer
            dsts = [d for d in vote.payload.sample.sample if d != signer]
            if signer in byzantine:
                roll = rng.random()
                if roll < 0.3:  # to whoever it likes, members or not
                    dsts = rng.sample(range(n), rng.randint(2, n - 1))
                elif roll < 0.5:  # relayed by another Byzantine seat
                    src = rng.choice(sorted(byzantine))
                elif roll < 0.6:  # a forged envelope: an invalid vote
                    vote = Signed(vote.payload, signer, b"\x01" * 32)
            deliveries += [(src, vote, [d]) for d in dsts]
            if rng.random() < 0.15:  # several recipients: a group's
                others.append((src, vote, dsts[: rng.randint(2, len(dsts))]))
    rng.shuffle(deliveries)
    del deliveries[rng.randint(150, 400):]
    for _ in range(rng.randint(0, 3)):  # replayed to the same recipient
        deliveries.insert(rng.randrange(len(deliveries)), rng.choice(deliveries))
    if rng.random() < 0.5:
        others.append((0, make_propose(crypto, config, VIEW, b"x"), list(range(1, n))))
    for bucket in others:
        deliveries.insert(rng.randrange(len(deliveries)), bucket)
    return deliveries


class TestChainEqualsBuckets:
    @pytest.mark.parametrize("block", range(6))
    def test_random_chains(self, block):
        """≥ 300 random chains: one chained delivery and one call per bucket
        leave every array, retained message, buffer, the handler-call order,
        the per-bucket delivered counts, the route counters and the number
        of token lookups equal — across quorum crossings, a view flagged
        equivocal by a stop, a refused boundary and a router's sliced view
        of the run."""
        rng = random.Random(12_000 + block)
        crossings = flagged = refused = walked = chains = 0
        for _ in range(60):
            config, crypto, shape, warmup, run = _random_case(rng)
            one, each = _Fixture(config, crypto, shape), _Fixture(config, crypto, shape)
            never = lambda: False
            for fixture in (one, each):  # identical pasts: a phase under way
                fixture.deliver_each(warmup + run, None, never)
            pending = _random_chain(rng, config, crypto, shape)
            mode = rng.choice(["complete", "complete", "stop", "refuse"])
            past = len(one.log)
            stops = past + rng.randint(1, 6)
            refuse_at = rng.randint(1, len(pending) - 1) if mode == "refuse" else None
            routed = rng.random() < 0.3
            sliced = (lambda pos: rng.random() < 0.5) if routed else (lambda pos: False)
            flag_at = past + rng.randint(1, 4) if rng.random() < 0.3 else None
            table = crypto.verdicts.counts
            results, lookups = [], []
            kernel = one.kernel
            walked, chains = walked - kernel.walked, chains - kernel.walks
            for fixture in (one, each):
                fixture.flag_at = flag_at
                stop = fixture.stop_after(stops) if mode == "stop" else never
                before = table.computed["vote"] + table.reused["vote"]
                if fixture is one:
                    results.append(fixture.deliver_chained(pending, stop, refuse_at, sliced))
                else:
                    results.append(fixture.deliver_each(pending[:refuse_at], None, stop))
                lookups.append(table.computed["vote"] + table.reused["vote"] - before)
            assert results[0] == results[1], (block, mode)
            assert one.log == each.log
            assert one.observable() == each.observable()
            assert _route_counters(one) == _route_counters(each)
            assert kernel.walked == each.kernel.walked
            assert one.kernel._equivocal == each.kernel._equivocal
            assert lookups[0] == lookups[1] > 0
            assert kernel.walks <= kernel.walked == each.kernel.walks
            walked += kernel.walked
            chains += kernel.walks
            crossings += any(kind != "byz" for kind, *_ in one.log[past:])
            flagged += bool(one.kernel._equivocal)
            refused += mode == "refuse" and len(results[0]) == refuse_at
        # The generator reaches what it is meant to reach, and chains chain
        # (walks and buckets of the chained deliveries, not of their pasts).
        assert crossings >= 12 and flagged >= 5 and refused >= 5, (crossings, flagged, refused)
        assert walked >= 8 * chains

    @pytest.mark.parametrize("block", range(2))
    def test_a_bucket_split_per_recipient_is_the_same_bucket(self, block, monkeypatch):
        """The walk's rules are the pass's: a phase delivered bucket by
        bucket (array passes, whatever their size) and the same phase with
        every bucket split into one bucket per recipient (one chain) end in
        the same state."""
        from repro.core import columnar

        rng = random.Random(13_000 + block)
        for _ in range(40):
            config, crypto, shape, warmup, run = _random_case(rng)
            whole, split = _Fixture(config, crypto, shape), _Fixture(config, crypto, shape)
            never = lambda: False
            buckets = warmup + run
            monkeypatch.setattr(columnar, "_PASS_MIN_VOTES", 0)
            counts = whole.deliver_each(buckets, None, never)
            monkeypatch.undo()
            pending = [(src, m, [d]) for src, m, dsts in buckets for d in dsts]
            walked = iter(split.deliver_chained(pending, never, None, lambda pos: False))
            for (_, _, dsts), count in zip(buckets, counts):
                each = [next(walked) for _ in dsts]
                # (Declined is declined, per bucket or per recipient.)
                assert -1 in each if count == -1 else sum(each) == count
            assert split.log == whole.log
            assert split.observable() == whole.observable()


# ----------------------------------------------------------------------
# Whole trials
# ----------------------------------------------------------------------

#: ``(delivered_total, events_processed, delivered_by_type)`` of the ProBFT
#: cells at n=40, f=13, seed 4242, recorded from the parent commit (one
#: event and one kernel call per bucket).  ``ORACLE``: the oracle's own
#: count on the same spec — every vote bucket of a duplication cell is
#: declined and delivered whole, as the oracle delivers it.
ORACLE = None
PARENT_GRID = {
    ("crash", "constant"): (6701, 604, dict(Commit=1082, NewLeader=78, Prepare=2226, Propose=156, Wish=3159)),
    ("crash", "exponential"): (6700, 8322, dict(Commit=1090, NewLeader=78, Prepare=2217, Propose=156, Wish=3159)),
    ("duplication", "constant"): (ORACLE, 158, ORACLE),
    ("duplication", "exponential"): (ORACLE, 2058, ORACLE),
    ("equivocation", "constant"): (15517, 1901, dict(Commit=2480, NewLeader=156, Prepare=5225, Propose=1338, Wish=6318)),
    ("equivocation", "exponential"): (15338, 17302, dict(Commit=2357, NewLeader=156, Prepare=5013, Propose=1494, Wish=6318)),
    ("flooding", "constant"): (1476, 535, dict(Commit=627, Prepare=810, Propose=39)),
    ("flooding", "exponential"): (1483, 2065, dict(Commit=640, Prepare=804, Propose=39)),
    ("none", "constant"): (1035, 117, dict(Commit=504, Prepare=492, Propose=39)),
    ("none", "exponential"): (1082, 1690, dict(Commit=525, Prepare=518, Propose=39)),
    ("silent", "constant"): (2613, 238, dict(Commit=506, NewLeader=38, Prepare=509, Propose=39, Wish=1521)),
    ("silent", "exponential"): (2636, 3253, dict(Commit=506, NewLeader=38, Prepare=532, Propose=39, Wish=1521)),
    ("targeted-scheduler", "constant"): (3261, 407, dict(Commit=596, NewLeader=39, Prepare=988, Propose=78, Wish=1560)),
    ("targeted-scheduler", "exponential"): (3070, 4090, dict(Commit=542, NewLeader=38, Prepare=853, Propose=77, Wish=1560)),
}


class TestTrialsCountWhatTheParentCounted:
    def test_the_grid_is_the_whole_grid(self):
        assert {a for a, _ in PARENT_GRID} == set(ADVERSARIES)

    @pytest.mark.parametrize("adversary,latency", sorted(PARENT_GRID))
    def test_probft_cell(self, adversary, latency):
        cell = MatrixCell("probft", adversary, latency, n=40, f=13)
        spec = cell_deployment_spec(cell, seed=4242, max_time=600.0)
        context = TrialContext(spec)
        context.execute()
        stats = context.deployment.network.stats
        delivered, events, by_type = PARENT_GRID[adversary, latency]
        if delivered is ORACLE:
            oracle = TrialContext(reference_spec(spec))
            assert oracle.execute() == context.result
            delivered = oracle.deployment.network.stats.delivered_total
            by_type = dict(oracle.deployment.network.stats.delivered_by_type)
        assert (
            stats.delivered_total,
            context.deployment.sim.events_processed,
            dict(stats.delivered_by_type),
        ) == (delivered, events, by_type)
        routes = context.deployment.vote_kernel_stats()
        if adversary == "duplication":  # every vote bucket declined
            assert routes["vote_passes"] == routes["vectorised"] == 0
        elif latency == "constant":
            assert 0 < routes["vote_passes"] < routes["vectorised"]
        else:  # (nearly) every bucket has one recipient
            assert routes["vote_passes"] <= routes["vectorised"] < routes["walked"]


class TestSlotRetiresInsideAGroup:
    """SMR at n=9, rotating leaders, an equivocating leader: the last
    replica to apply a slot does so from a commit quorum in the middle of
    that slot's Commit group; the buckets after it are a retired slot's."""

    SPEC = dict(
        adversary="equivocating-leader", rotate_leaders=True, load="high",
        num_clients=12, requests_per_client=4, seed=5,
    )
    #: ``network.stats.delivered_total`` and the vote buckets reached of
    #: this trial at the parent commit (there ``vectorised``, in array
    #: passes; its groups are below the break-even, so now ``walked``).
    PARENT_DELIVERED, PARENT_BUCKETS = 1932, 251

    def test_equals_oracle_and_parent(self, monkeypatch):
        from repro.smr.workload import ServingSpec, build_serving_deployment, serve

        spec = ServingSpec(**self.SPEC)
        deployment = build_serving_deployment(spec)
        stacks, apply_pass = deployment.stack, ColumnarVoteDispatch.__call__
        cut_by_retirement = []

        def watching(kernel, run, pos, probe, advance):
            before = stacks.retired
            took = apply_pass(kernel, run, pos, probe, advance)
            if stacks.retired > before and pos + len(took) < len(run):
                cut_by_retirement.append(stacks.retired)
            return took

        monkeypatch.setattr(ColumnarVoteDispatch, "__call__", watching)
        result = serve(spec, deployment)
        assert result.completed == spec.total_requests
        assert result.logs_consistent and result.timed_out == 0
        # Slots did retire with buckets of their Commit group still to come.
        assert cut_by_retirement
        assert deployment.network.stats.delivered_total == self.PARENT_DELIVERED
        routes = result.kernel_stats
        assert routes["vote_passes"] == routes["vectorised"] == 0 < routes["vote_chains"]
        assert routes["walked"] == self.PARENT_BUCKETS
        oracle = serve(spec, build_serving_deployment(spec, reference=True))
        assert oracle == result and oracle.latencies == result.latencies


class TestEquivocalFlagFlipsInsideAGroup:
    """The view-1 leader proposes like an honest one, then answers the first
    Prepare it is handed — as a *recipient*, from inside the pass applying
    that vote's group — with a second statement under its signature: the
    view is flagged equivocal mid-group.  The group runs to its end (the
    conflicting statement cannot have been delivered yet), the trial
    decides, and it equals its oracle."""

    @staticmethod
    def _seat(flips):
        class Flipper:
            def __init__(self, replica_id, config, crypto, transport):
                self.id, self.config = replica_id, config
                self._crypto, self._transport = crypto, transport
                self.flipped = False

            def start(self):
                proposal = make_propose(self._crypto, self.config, 1, b"first")
                self._transport.broadcast(proposal)

            def on_message(self, src, message):
                from repro.messages.probft import Prepare

                payload = getattr(message, "payload", None)
                if self.flipped or not isinstance(payload, Prepare):
                    return
                self.flipped = True
                flips.append(self._transport.now)
                statement = make_statement(self._crypto, self.config, 1, b"other")
                rival = make_prepare(self._crypto, self.config, self.id, statement)
                self._transport.multicast(
                    [d for d in range(self.config.n) if d != self.id], rival
                )

        return Flipper

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_decides_and_equals_its_oracle(self, seed, monkeypatch):
        def context(reference, flips):
            cell = MatrixCell("probft", "none", "constant", n=30, f=5)
            spec = dataclasses.replace(
                cell_deployment_spec(cell, seed=seed, max_time=600.0),
                byzantine={0: self._seat(flips)},
            )
            return TrialContext(reference_spec(spec) if reference else spec)

        apply_pass = ColumnarVoteDispatch.__call__
        flipped_in = []  # (buckets before the flip's pass, buckets it took)

        def watching(kernel, run, pos, probe, advance):
            flagged = bool(kernel._equivocal)
            took = apply_pass(kernel, run, pos, probe, advance)
            if kernel._equivocal and not flagged:
                flipped_in.append((pos, len(took), len(run)))
            return took

        monkeypatch.setattr(ColumnarVoteDispatch, "__call__", watching)
        flips, oracle_flips = [], []
        production = context(False, flips)
        result = production.execute()
        assert result == context(True, oracle_flips).execute()
        assert result.all_decided and result.agreement_ok
        assert flips == oracle_flips and len(flips) == 1
        assert 1 in production.deployment.stack.votes._equivocal
        # The flip came from inside the pass over the whole Prepare phase,
        # which went on to its end ...
        assert flipped_in == [(0, 29, 29)]
        # ... and what arrived after it took the per-recipient loop.
        assert production.deployment.vote_kernel_stats()["declined"] > 0


class TestWishKernelEqualsTheOracle:
    """The wish kernel's groups and walks on every view-change cell: the
    production result, and every Wish delivery, are the oracle's.  Under
    constant latency a view change is a same-time run of broadcasts taken
    by array passes; under exponential latency every Wish bucket has one
    recipient and a chain of them is one walk.  (n=100 cells stop at
    sim-time 35, after their first view change: the oracle's per-recipient
    delivery takes ~5 s a view change there.)"""

    @pytest.mark.parametrize("latency", ["constant", "exponential"])
    @pytest.mark.parametrize("adversary", ["silent", "silent-f", "equivocation", "crash"])
    @pytest.mark.parametrize("n", [16, 40, 100])
    def test_cell(self, n, adversary, latency):
        cell = MatrixCell("probft", adversary, latency, n=n, f=(n - 1) // 3)
        spec = cell_deployment_spec(cell, seed=1, max_time=35.0 if n == 100 else 600.0)
        context = TrialContext(spec)
        oracle = TrialContext(reference_spec(spec))
        assert context.execute() == oracle.execute()
        wishes = context.deployment.network.stats.delivered_by_type["Wish"]
        assert wishes == oracle.deployment.network.stats.delivered_by_type["Wish"]
        routes = context.deployment.vote_kernel_stats()
        assert routes["wish_declined"] == 0
        if not wishes:
            return  # (crash, exponential, n=40: decided in view 1)
        if latency == "constant":
            assert routes["wish_passes"] > 0 and routes["wish_scalar"] == 0, routes
        else:
            assert routes["wish_passes"] == routes["wish_vectorised"] == 0, routes
            assert 4 * routes["wish_walks"] <= routes["wish_scalar"], routes
