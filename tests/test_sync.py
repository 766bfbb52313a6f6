"""Tests for timeout policies and the view synchronizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.context import CryptoContext
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.transport import Transport
from repro.sync.columns import WishDispatch
from repro.sync.synchronizer import ViewSynchronizer, Wish
from repro.sync.timeouts import ExponentialTimeout, FixedTimeout, LinearTimeout


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
    wish replica ``r``'s endpoint broadcast.
    """

    def __init__(self, n=4, f=1, timeout=FixedTimeout(10.0), backend="dict"):
        self.sim = Simulator()
        self.network = Network(self.sim, n, latency=ConstantLatency(1.0))
        self.crypto = CryptoContext.create(n)
        self.views = {r: [] for r in range(n)}
        self.sent = {r: [] for r in range(n)}
        self.syncs = {}
        broadcast = self.network.broadcast

        def logged(src, message, include_self=False):
            self.sent[src].append((self.sim.now, message.payload.view))
            broadcast(src, message, include_self=include_self)

        self.network.broadcast = logged
        for r in range(n):
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
                self.network._handlers,
            )
            self.network.use_kernel(self.kernel)

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
        the fan-outs to two recipients, so the kernel takes them."""
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
            assert cluster.kernel.stats()["wish_vectorised"] == 5

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
