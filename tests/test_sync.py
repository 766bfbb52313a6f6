"""Tests for timeout policies and the view synchronizer."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ProtocolConfig
from repro.crypto.context import CryptoContext
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.transport import Transport
from repro.sync import columns as wish_kernel
from repro.sync.columns import WishDispatch
from repro.sync.synchronizer import ViewSynchronizer, Wish
from repro.sync.timeouts import ExponentialTimeout, FixedTimeout, LinearTimeout

from .helpers import make_new_leader, make_propose


class TestTimeoutPolicies:
    def test_fixed(self):
        assert FixedTimeout(5.0).timeout_for(1) == 5.0
        assert FixedTimeout(5.0).timeout_for(99) == 5.0
        with pytest.raises(ValueError):
            FixedTimeout(0.0)

    def test_linear(self):
        policy = LinearTimeout(base=10.0, increment=5.0)
        assert policy.timeout_for(1) == 10.0
        assert policy.timeout_for(3) == 20.0
        with pytest.raises(ValueError):
            LinearTimeout(base=0.0)

    def test_exponential(self):
        policy = ExponentialTimeout(base=2.0, factor=2.0, cap=10.0)
        assert policy.timeout_for(1) == 2.0
        assert policy.timeout_for(2) == 4.0
        assert policy.timeout_for(10) == 10.0  # capped
        with pytest.raises(ValueError):
            ExponentialTimeout(base=1.0, factor=0.5)

    def test_timeouts_grow(self):
        policy = ExponentialTimeout(base=1.0, factor=2.0)
        values = [policy.timeout_for(v) for v in range(1, 10)]
        assert values == sorted(values)


BACKENDS = ("dict", "columns")


class SyncCluster:
    """n synchronizers wired over a simulated network (no protocol on top).

    ``backend="dict"`` is the per-replica :class:`WishLedger` under
    per-recipient delivery (what the oracle runs); ``"columns"`` installs
    what a production deployment does: coalesced fan-outs, the shared
    columns and the wish kernel.  ``sent[r]`` logs ``(time, view)`` of every
    wish replica ``r``'s endpoint broadcast.  ``byzantine`` replicas run no
    synchronizer: their handler logs ``(time, replica, src, view)`` of each
    delivery to ``handled`` (an arbitrary handler, to the kernel).
    """

    def __init__(
        self, n=4, f=1, timeout=FixedTimeout(10.0), backend="dict",
        byzantine=(), duplicate_prob=0.0,
    ):
        self.sim = Simulator()
        self.network = Network(
            self.sim, n, latency=ConstantLatency(1.0), duplicate_prob=duplicate_prob
        )
        self.crypto = CryptoContext.create(n)
        self.views = {r: [] for r in range(n)}
        self.sent = {r: [] for r in range(n)}
        self.handled = []
        self.syncs = {}
        broadcast = self.network.broadcast

        def logged(src, message, include_self=False):
            self.sent[src].append((self.sim.now, message.payload.view))
            broadcast(src, message, include_self=include_self)

        self.network.broadcast = logged
        for r in range(n):
            if r in byzantine:
                self.network.register(r, partial(self._handle, r))
                continue
            transport = Transport(self.network, r)
            sync = ViewSynchronizer(
                transport=transport,
                f=f,
                signatures=self.crypto.signatures,
                on_new_view=lambda v, r=r: self.views[r].append(v),
                timeout_policy=timeout,
            )
            self.syncs[r] = sync
            self.network.register(
                r, lambda src, msg, s=sync: s.on_wish(src, msg)
            )
        self.kernel = None
        if backend == "columns":
            self.kernel = WishDispatch(
                n, f, self.crypto.signatures, dict(self.syncs),
                self.network._handlers, dup_possible=duplicate_prob > 0,
            )
            self.network.use_kernel({Wish: self.kernel})

    def _handle(self, replica, src, message):
        view = getattr(getattr(message, "payload", None), "view", None)
        self.handled.append((self.sim.now, replica, src, view))

    def start(self, replicas=None):
        for r, sync in self.syncs.items():
            if replicas is None or r in replicas:
                sync.start()

    def wish(self, signer, view, domain=""):
        return self.crypto.signatures.sign(signer, Wish(view=view, domain=domain))

    def state(self):
        """Everything the two backends must agree on."""
        return (
            {r: s.current_view for r, s in self.syncs.items()},
            {r: s._max_wish_sent for r, s in self.syncs.items()},
            self.views,
            self.sent,
            self.handled,
            self.network.stats.delivered_total,
            self.sim.now,
        )


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestViewSynchronizer:
    def test_start_enters_view_1(self, backend):
        cluster = SyncCluster(backend=backend)
        cluster.start()
        assert all(v == [1] for v in cluster.views.values())

    def test_timeout_advances_all_to_view_2(self, backend):
        cluster = SyncCluster(backend=backend)
        cluster.start()
        cluster.sim.run(until=30.0)
        for r in range(4):
            assert cluster.views[r][-1] >= 2
            assert cluster.syncs[r].current_view >= 2

    def test_views_advance_roughly_together(self, backend):
        cluster = SyncCluster(n=7, f=2, backend=backend)
        cluster.start()
        cluster.sim.run(until=100.0)
        finals = {cluster.syncs[r].current_view for r in range(7)}
        assert max(finals) - min(finals) <= 1

    def test_f_plus_1_wishes_trigger_relay(self, backend):
        """A replica that never timed out joins when f+1 wishes arrive."""
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        # Inject wishes for view 2 from replicas 1 and 2 (f+1 = 2 of them).
        for signer in (1, 2):
            cluster.network.broadcast(signer, cluster.wish(signer, 2))
        cluster.sim.run(until=50.0)
        # Replica 0 relayed and, counting its own wish, 2f+1=3 are reached.
        assert cluster.syncs[0].current_view == 2

    def test_fewer_than_f_plus_1_wishes_ignored(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        cluster.network.broadcast(1, cluster.wish(1, 2))
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_invalid_wish_signature_ignored(self, backend):
        from dataclasses import replace

        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        for signer in (1, 2):
            forged = replace(cluster.wish(signer, 5), payload=Wish(view=9))
            cluster.network.broadcast(signer, forged)
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_wish_from_wrong_domain_ignored(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        for signer in (1, 2):
            cluster.network.broadcast(
                signer, cluster.wish(signer, 2, domain="slot-3")
            )
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_view_skipping(self, backend):
        """2f+1 wishes for a far-ahead view jump straight to it."""
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        for signer in (1, 2, 3):
            cluster.network.broadcast(signer, cluster.wish(signer, 7))
        cluster.sim.run(until=50.0)
        assert cluster.syncs[0].current_view == 7

    def test_stop_cancels_timers(self, backend):
        cluster = SyncCluster(backend=backend)
        cluster.start()
        for sync in cluster.syncs.values():
            sync.stop()
        cluster.sim.run(until=100.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_sender_spoofing_ignored(self, backend):
        """A wish whose signer differs from the transport src is dropped."""
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        # Replica 3 relays replica 1's wish claiming it as its own source.
        cluster.network.send(3, 0, cluster.wish(1, 2))
        cluster.network.send(3, 0, cluster.wish(3, 2))
        cluster.sim.run(until=50.0)
        # Only one distinct wisher counted at replica 0 -> no relay to view 2.
        assert cluster.syncs[0].current_view == 1

    # -- far-future wishers, replays, double crossings, stopped endpoints --

    @pytest.mark.parametrize("far", [50, 10**9])
    def test_f_far_future_wishers_never_relay_and_f_plus_1_do(self, backend, far):
        cluster = SyncCluster(
            n=7, f=2, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        for signer in (5, 6):  # f of them
            cluster.network.broadcast(signer, cluster.wish(signer, far))
        cluster.sim.run(until=10.0)
        assert all(s._max_wish_sent == 0 for s in cluster.syncs.values())
        assert all(s.current_view == 1 for s in cluster.syncs.values())
        cluster.network.broadcast(4, cluster.wish(4, far + 1))  # the f+1-th
        cluster.sim.run(until=20.0)
        # Everybody relays the (f+1)-th highest wish, and with the relays
        # 2f+1 replicas want it: all enter.
        for r in range(4):
            assert cluster.sent[r] == [(11.0, far)]
        assert all(s.current_view == far for s in cluster.syncs.values())

    def test_lower_wish_than_recorded_changes_nothing(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        cluster.network.broadcast(1, cluster.wish(1, 3))
        cluster.sim.run(until=5.0)
        cluster.network.broadcast(1, cluster.wish(1, 2))  # lower: stale
        cluster.network.broadcast(2, cluster.wish(2, 2))
        cluster.sim.run(until=50.0)
        # Replica 1 still counts for view 2 through its wish for 3, so two
        # wishers (f+1) reach view 2 — the relay — and nobody reaches 3.
        assert cluster.syncs[0]._max_wish_sent == 2
        assert cluster.syncs[0].current_view == 2

    def test_duplicate_delivery_counts_once(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        wish = cluster.wish(1, 2)
        for _ in range(3):
            cluster.network.broadcast(1, wish)
            cluster.network.send(1, 0, wish)
        cluster.sim.run(until=50.0)
        assert all(s._max_wish_sent == 0 for s in cluster.syncs.values())
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_replayed_wish_costs_no_verification(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        verified = []
        scheme = cluster.crypto.signatures
        verify = scheme.verify

        class Counting:
            def __getattr__(self, name):
                return getattr(scheme, name)

            def verify(self, signed):
                verified.append(signed)
                return verify(signed)

        counting = Counting()
        for sync in cluster.syncs.values():
            sync._signatures = counting
        if cluster.kernel is not None:
            cluster.kernel._signatures = counting
        wish = cluster.wish(1, 2)
        cluster.network.broadcast(1, wish)
        cluster.sim.run(until=5.0)
        first = len(verified)
        assert first >= 1
        cluster.network.broadcast(1, wish)
        cluster.network.send(1, 0, wish)
        cluster.network.send(1, 0, cluster.wish(1, 1))  # lower than recorded
        cluster.sim.run(until=10.0)
        assert len(verified) == first

    def test_one_delivery_crosses_relay_and_enter_together(self, backend):
        """n=7, f=2: relay at 3 wishers, enter at 5.  Replica 0 holds wishes
        for view 3 from 1 and 2 and for view 2 from 3, and has relayed 2
        (four wishers for 2, counting itself).  Replica 4's wish for 3 is
        then the third for view 3 — relay — and, with that relay recorded,
        the fifth for view 2 — enter.  Replica 6 is stopped: it only widens
        the fan-outs to two recipients, so they reach the kernel as buckets
        (walked: none is a broadcast, and n=7 is below the pass's
        break-even)."""
        cluster = SyncCluster(
            n=7, f=2, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        cluster.syncs[6].stop()
        for signer, view in ((1, 3), (2, 3), (3, 2)):
            cluster.network.multicast(signer, [0, 6], cluster.wish(signer, view))
        cluster.sim.run(until=2.5)
        assert cluster.sent[0] == [(1.0, 2)] and cluster.views[0] == [1]
        cluster.network.multicast(4, [0, 6], cluster.wish(4, 3))
        cluster.sim.run(until=4.0)
        assert cluster.sent[0] == [(1.0, 2), (3.5, 3)]
        assert cluster.views[0] == [1, 2]
        if cluster.kernel is not None:
            # The four injected fan-outs and replica 0's first relay.
            assert cluster.kernel.stats()["wish_scalar"] == 5

    def test_delivery_after_stop_is_ignored(self, backend):
        cluster = SyncCluster(
            n=4, f=1, timeout=FixedTimeout(1000.0), backend=backend
        )
        cluster.start()
        cluster.network.broadcast(1, cluster.wish(1, 2))
        cluster.sim.run(until=5.0)
        cluster.syncs[0].stop()
        cluster.network.broadcast(2, cluster.wish(2, 2))
        cluster.network.send(3, 0, cluster.wish(3, 2))
        cluster.sim.run(until=50.0)
        assert cluster.syncs[0]._max_wish_sent == 0
        assert cluster.syncs[0].current_view == 1
        # The running replicas carried on without it.
        assert cluster.syncs[3].current_view == 2


    def test_stop_releases_the_upcall(self, backend):
        """A stopped synchronizer no longer holds its protocol (teardown
        relies on it: the upcall is what ties a synchronizer to its replica)."""
        import weakref

        class Protocol:
            def new_view(self, view):
                pass

        cluster = SyncCluster(n=4, f=1, backend=backend)
        protocol = Protocol()
        held = weakref.ref(protocol)
        cluster.syncs[0]._on_new_view = protocol.new_view
        del protocol
        assert held() is not None
        cluster.syncs[0].stop()
        assert held() is None


def test_floor_follows_stops_without_rescanning():
    """Stopping replicas one by one keeps the columns' floor (and the slots
    dropped below it) equal to a full recomputation."""
    cluster = SyncCluster(n=7, f=2, timeout=FixedTimeout(1000.0), backend="columns")
    cluster.start()
    columns = cluster.kernel.columns
    columns._allocate()
    progress = [(1, 1), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (4, 5)]
    for replica, (view, sent) in enumerate(progress):
        columns.note_progress(replica, view, sent)
    for view in range(2, 6):
        columns._slot(view)
    assert (columns.floor, columns.live_views) == (1, [2, 3, 4, 5])
    floors = []
    for replica in (0, 2, 1, 6, 3, 5, 4):
        cluster.syncs[replica].stop()
        state = (columns.floor, columns._at_floor, columns.live_views)
        columns._raise_floor()
        assert (columns.floor, columns._at_floor, columns.live_views) == state
        floors.append(state[0])
    assert floors == [1, 1, 2, 2, 3, 3, 5]


# ----------------------------------------------------------------------
# The two backends are one algorithm
# ----------------------------------------------------------------------

_N, _F = 7, 2

#: One injected wish: when, from whom, for which view (near, or far beyond
#: anything the cluster reaches), to whom (one recipient = unicast, several =
#: a fan-out the kernel takes), and how many times it is replayed.
_injections = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.integers(min_value=0, max_value=_N - 1),
        st.one_of(st.integers(min_value=1, max_value=6), st.sampled_from([40, 10**9])),
        st.lists(
            st.integers(min_value=0, max_value=_N - 1),
            min_size=1, max_size=_N, unique=True,
        ),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=25,
)


def _drive(backend, injections, stop_at):
    cluster = SyncCluster(n=_N, f=_F, timeout=FixedTimeout(12.0), backend=backend)
    cluster.start()
    for when, signer, view, targets, copies in injections:
        wish = cluster.wish(signer, view)
        targets = [d for d in targets if d != signer]
        if not targets:
            continue

        def inject(signer=signer, wish=wish, targets=targets, copies=copies):
            for _ in range(copies):
                if len(targets) == 1:
                    cluster.network.send(signer, targets[0], wish)
                else:
                    cluster.network.multicast(signer, targets, wish)

        cluster.sim.schedule_at(when, inject)
    if stop_at is not None:
        cluster.sim.schedule_at(stop_at, cluster.syncs[3].stop)
    cluster.sim.run(until=60.0)
    return cluster


@settings(max_examples=120, deadline=None)
@given(
    injections=_injections,
    stop_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
)
def test_backends_agree_on_random_wish_schedules(injections, stop_at):
    """Random schedules of injected wishes — any sender, near and far views,
    unicast and fan-out, replays, on top of the cluster's own timeouts and
    with one endpoint optionally stopped mid-run — leave both backends with
    the same views, the same highest wish sent and the same sequence of
    broadcasts per replica."""
    reference = _drive("dict", injections, stop_at)
    columns = _drive("columns", injections, stop_at)
    assert columns.state() == reference.state()
    # Slots exist only between the slowest running replica and one past the
    # fastest, whatever views were claimed.
    live = columns.kernel.columns.live_views
    assert all(
        columns.kernel.columns.floor < v <= columns.kernel.columns.horizon
        for v in live
    )


# ----------------------------------------------------------------------
# Wish groups: one array pass over a same-time run of broadcasts
# ----------------------------------------------------------------------

_GN, _GF = 16, 5  # relay at 6 wishers, enter at 11; a broadcast is 15 deliveries


def _moment(backend, inject=None, split=_GN, byzantine=(), late=(),
            stop_when=None, duplicate_prob=0.0, until=25.0):
    """Every correct replica's timer fires at t=10 and broadcasts Wish(2),
    which land together at t=11 as one run; ``inject(cluster)`` sends
    between the timers of the replicas below ``split`` and the rest, so
    what it sends sits inside that run.  ``late`` replicas start at t=5:
    at t=11 they have wished nothing (their relay rule is live).
    ``stop_when(cluster)`` is the run's stop predicate and the network's
    stop probe, as a deployment's "all decided" is.  Up to ``until`` the
    cluster also takes the view-3 change at t=22."""
    cluster = SyncCluster(
        n=_GN, f=_GF, timeout=FixedTimeout(10.0), backend=backend,
        byzantine=byzantine, duplicate_prob=duplicate_prob,
    )
    early = [r for r in cluster.syncs if r not in late]
    cluster.start([r for r in early if r < split])
    if inject is not None:
        cluster.sim.schedule_at(10.0, lambda: inject(cluster))
    cluster.start([r for r in early if r >= split])
    for r in late:
        cluster.sim.schedule_at(5.0, cluster.syncs[r].start)
    predicate = None
    if stop_when is not None:
        predicate = cluster.network.stop_probe = partial(stop_when, cluster)
    cluster.sim.run(until=until, stop_when=predicate)
    return cluster


def _against_oracle(**moment):
    """The moment on the columns (kernel) and on per-recipient ledgers:
    the same views, wishes sent, Byzantine deliveries, delivered count
    and clock; returns the kernel's route counters."""
    columns = _moment("columns", **moment)
    assert columns.state() == _moment("dict", **moment).state()
    return columns.kernel.stats()


def _broadcast_wish(signer, view):
    return lambda cluster: cluster.network.broadcast(signer, cluster.wish(signer, view))


@pytest.fixture
def every_group_passes(monkeypatch):
    monkeypatch.setattr(wish_kernel, "_PASS_MIN_WISHES", 0)


class TestWishGroups:
    """Group boundaries, each against the per-recipient oracle."""

    def test_one_pass_takes_a_whole_view_change(self, every_group_passes):
        stats = _against_oracle()
        # Two moments (views 2 and 3), each one group of 16 broadcasts.
        assert stats["wish_passes"] == 2 and stats["wish_vectorised"] == 32
        assert stats["wish_scalar"] == stats["wish_walks"] == 0

    @pytest.mark.parametrize("view", [1, 3, 10**9])
    def test_a_wish_for_another_view_ends_a_group(self, every_group_passes, view):
        """A stale wish (at the floor: recorded nowhere) is a group of its
        own; one beyond the horizon is walked: its far record is scalar."""
        stats = _against_oracle(inject=_broadcast_wish(3, view), split=8)
        # Replicas 0-7's broadcasts, the injected one, replicas 8-15's.
        assert stats["wish_vectorised"] + stats["wish_scalar"] == 33
        if view == 1:
            assert stats["wish_passes"] == 4 and stats["wish_scalar"] == 0
        else:
            assert stats["wish_passes"] == 3 and stats["wish_scalar"] == 1

    @pytest.mark.parametrize("kind", ["propose", "new-leader"])
    def test_a_non_wish_entry_ends_a_group(self, every_group_passes, kind):
        config = ProtocolConfig(n=_GN, f=_GF)

        def inject(cluster):
            if kind == "propose":
                message = make_propose(cluster.crypto, config, 1, b"x")
            else:
                message = make_new_leader(cluster.crypto, config, 2, 2)
            cluster.network.broadcast(2, message)

        stats = _against_oracle(inject=inject, split=8)
        assert stats["wish_passes"] == 3 and stats["wish_vectorised"] == 32

    def test_a_byzantine_recipient_is_a_stop(self, every_group_passes):
        """Its handler runs at its turn in every bucket, in (bucket,
        recipient) order, between the correct recipients' reactions."""
        stats = _against_oracle(byzantine=(0, 9))
        assert stats["wish_passes"] == 2 and stats["wish_vectorised"] == 28

    @pytest.mark.parametrize("replica", [0, 7, 15])
    def test_the_probe_ends_a_group_mid_way(self, every_group_passes, replica):
        """The run stops once ``replica`` entered view 2: inside one
        bucket, at that recipient, the rest of the group undelivered."""
        def entered(cluster):
            return len(cluster.views[replica]) > 1

        stats = _against_oracle(stop_when=entered)
        assert stats["wish_passes"] == 1

    def test_a_live_relay_rule_keeps_a_group_to_one_bucket(self, every_group_passes):
        """Replicas 14 and 15 have wished nothing when the t=11 run of 14
        broadcasts lands: each relays at its sixth wish.  Until then every
        bucket is a group of its own; the other eight are one group, and
        the two relays (landing at t=12) another."""
        stats = _against_oracle(late=(14, 15), until=15.0)
        assert stats["wish_passes"] == 6 + 1 + 1
        assert stats["wish_vectorised"] == 14 + 2

    def test_duplication_declines_every_wish_bucket(self, every_group_passes):
        stats = _against_oracle(duplicate_prob=0.3)
        assert stats["wish_declined"] > 0
        assert stats["wish_passes"] == stats["wish_walks"] == 0

    @pytest.mark.parametrize("margin, passed", [(-1, True), (0, True), (1, False)])
    def test_groups_either_side_of_the_break_even(self, monkeypatch, margin, passed):
        """Groups of four broadcasts (60 deliveries) with the break-even at
        59, 60 and 61: passed, passed, walked — with one result."""
        monkeypatch.setattr(wish_kernel, "_PASS_WISHES", 4 * (_GN - 1))
        monkeypatch.setattr(wish_kernel, "_PASS_MIN_WISHES", 4 * (_GN - 1) + margin)
        stats = _against_oracle()
        assert stats["wish_passes"] == (8 if passed else 0)
        assert stats["wish_walks"] == (0 if passed else 2)


#: One moment's extra traffic: (broadcaster, view — stale, current, next,
#: far — and whether it is a broadcast or a two-recipient multicast).
_extra = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=_GN - 1),
        st.sampled_from([1, 2, 3, 10**9]),
        st.booleans(),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    extra=_extra,
    split=st.integers(min_value=0, max_value=_GN),
    byzantine=st.sets(st.integers(min_value=0, max_value=_GN - 1), max_size=_GF),
    late=st.sets(st.integers(min_value=0, max_value=_GN - 1), max_size=3),
    stop_after=st.one_of(st.none(), st.integers(min_value=1, max_value=_GN)),
    budget=st.integers(min_value=1, max_value=_GN + 2),
)
def test_passes_equal_the_oracle_on_random_moments(extra, split, byzantine, late,
                                                   stop_after, budget):
    """Random view-change moments — Byzantine recipients, replicas whose
    relay rule is live, stale / next / far wishes and multicasts inside the
    run, a probe that fires after the ``stop_after``-th entry into view 2,
    groups cut to ``budget`` broadcasts — with every group passed: the
    same state as per-recipient ledgers."""

    def inject(cluster):
        for signer, view, broadcast in extra:
            wish = cluster.wish(signer, view)
            if broadcast:
                cluster.network.broadcast(signer, wish)
            else:
                cluster.network.multicast(signer, [(signer + 1) % _GN, (signer + 2) % _GN], wish)

    def entered(cluster):
        return sum(len(v) > 1 for v in cluster.views.values()) >= stop_after

    saved = wish_kernel._PASS_MIN_WISHES, wish_kernel._PASS_WISHES
    wish_kernel._PASS_MIN_WISHES, wish_kernel._PASS_WISHES = 0, budget * (_GN - 1)
    try:
        _against_oracle(
            inject=inject, split=split, byzantine=tuple(byzantine),
            late=tuple(late - byzantine), stop_when=None if stop_after is None else entered,
        )
    finally:
        wish_kernel._PASS_MIN_WISHES, wish_kernel._PASS_WISHES = saved
