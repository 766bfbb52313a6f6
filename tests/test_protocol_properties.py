"""Protocol-level property tests: randomized configurations and fault mixes.

Hypothesis drives whole-protocol executions with random (small) system
sizes, fault assignments, latency jitter and seeds; safety must hold in
every generated execution and liveness in every execution whose parameters
admit it.  Sizes are kept small so each example runs in milliseconds.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import crash_factory, silent_factory
from repro.adversary.equivocation import equivocation_byzantine_map
from repro.config import ProtocolConfig, max_faults
from repro.core.invariants import audit_deployment
from repro.core.protocol import ProBFTDeployment
from repro.net.latency import UniformLatency
from repro.sync.timeouts import FixedTimeout

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


configs = st.builds(
    lambda n: ProtocolConfig(n=n, f=max_faults(n)),
    st.integers(7, 25),
)


class TestRandomizedHappyPath:
    @given(configs, st.integers(0, 1000))
    @SLOW
    def test_fault_free_runs_decide_and_agree(self, config, seed):
        dep = ProBFTDeployment(
            config,
            seed=seed,
            latency=UniformLatency(0.5, 1.5, seed=seed),
            timeout_policy=FixedTimeout(30.0),
        )
        dep.run(max_time=5000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert audit_deployment(dep).ok


class TestRandomizedFaultMixes:
    @given(
        configs,
        st.integers(0, 500),
        st.data(),
    )
    @SLOW
    def test_random_fault_assignment_safe_and_live(self, config, seed, data):
        """Up to f replicas fail as a random mix of silent/crash.

        The fault count is capped at ``min(f, n − q)``, the *liveness* fault
        tolerance:
        at small n, ``q = ⌈2√n⌉`` can exceed ``n − f``, in which case f
        silent replicas make quorums unattainable — safety holds but
        liveness cannot (hypothesis originally found exactly this at n=7).
        """
        n_faulty = data.draw(
            st.integers(0, min(config.f, config.n - config.q)), label="n_faulty"
        )
        # Keep the view-1 leader correct so liveness stays fast.
        faulty_ids = data.draw(
            st.lists(
                st.integers(1, config.n - 1),
                min_size=n_faulty,
                max_size=n_faulty,
                unique=True,
            ),
            label="faulty_ids",
        )
        byzantine = {}
        for replica in faulty_ids:
            kind = data.draw(st.sampled_from(["silent", "crash"]), label="kind")
            byzantine[replica] = (
                silent_factory()
                if kind == "silent"
                else crash_factory(crash_time=data.draw(st.floats(0.5, 5.0)))
            )
        dep = ProBFTDeployment(
            config,
            seed=seed,
            latency=UniformLatency(0.5, 1.5, seed=seed),
            timeout_policy=FixedTimeout(30.0),
            byzantine=byzantine,
        )
        dep.run(max_time=10_000)
        assert dep.agreement_ok
        assert dep.all_correct_decided()


class TestRandomizedEquivocation:
    @given(st.integers(10, 22), st.integers(0, 500))
    @SLOW
    def test_equivocation_attack_always_safe(self, n, seed):
        config = ProtocolConfig(n=n, f=max_faults(n))
        byzantine, _plan = equivocation_byzantine_map(config)
        dep = ProBFTDeployment(
            config,
            seed=seed,
            latency=UniformLatency(0.5, 1.5, seed=seed),
            timeout_policy=FixedTimeout(25.0),
            byzantine=byzantine,
        )
        dep.run(max_time=10_000)
        assert dep.agreement_ok
        assert audit_deployment(dep).ok
