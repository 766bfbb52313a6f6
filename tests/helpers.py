"""Shared test utilities: hand-built protocol messages and certificates.

Most builders use the "saturated" config (small n where the VRF sample size
caps at ``n``), which makes every replica a member of every sample — so
certificate construction is deterministic and membership preconditions are
always satisfiable.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence, Tuple

from repro.config import ProtocolConfig
from repro.core.leader import leader_of_view
from repro.crypto.context import CryptoContext
from repro.crypto.signatures import Signed
from repro.crypto.vrf import phase_seed
from repro.messages.base import ProposalStatement
from repro.messages.probft import Commit, NewLeader, Prepare, Propose
from repro.types import ReplicaId, Value, View


def reference_spec(spec):
    """``spec``'s test oracle: per-recipient delivery, per-message handlers,
    set-based collectors (``reference=True`` on the deployment base)."""
    return dataclasses.replace(spec, extra=spec.extra + (("reference", True),))


def good_case(protocol, n, f, seed=0):
    """A fault-free unit-latency trial (the matrix's ``none`` /
    ``constant`` cell): steps == last decision time."""
    from repro.harness.registry import MatrixCell, cell_deployment_spec
    from repro.harness.trial import run_trial

    cell = MatrixCell(protocol, "none", "constant", n, f)
    return run_trial(cell_deployment_spec(cell, seed, 10_000.0))


def cell_deployment(protocol, adversary, n, f, seed=0, latency="constant"):
    """One matrix cell's trial, run: its finished deployment."""
    from repro.harness.registry import MatrixCell, cell_deployment_spec
    from repro.harness.trial import TrialContext

    cell = MatrixCell(protocol, adversary, latency, n, f)
    context = TrialContext(cell_deployment_spec(cell, seed, 5000.0))
    context.execute()
    return context.deployment


def seeded_specs(trials, master_seed=0, params=None):
    """Trials ``0..trials-1`` of ``master_seed``, as every experiment seeds
    them: trial ``i`` is ``TrialSpec(i, derive_seed(master_seed, i), params)``."""
    from repro.harness.parallel import TrialSpec, derive_seed

    return [TrialSpec(i, derive_seed(master_seed, i), params) for i in range(trials)]


def deliver_bucket(handler, src, message, dsts, probe=None):
    """One bucket through a bulk handler (a run of one): its delivered
    count, or -1 if the handler declined it."""
    (delivered,) = handler([(src, message, dsts)], 0, probe, lambda k: False)
    return delivered


def saturated_config(**overrides) -> ProtocolConfig:
    """n=8, f=1: sample size caps at n, so everyone is in every sample."""
    params = dict(n=8, f=1, l=2.0, o=1.7)
    params.update(overrides)
    return ProtocolConfig(**params)


def make_crypto(config: ProtocolConfig, seed: bytes = b"test") -> CryptoContext:
    return CryptoContext.create(config.n, master_seed=seed)


def make_statement(
    crypto: CryptoContext,
    config: ProtocolConfig,
    view: View,
    value: Value,
    signer: Optional[ReplicaId] = None,
) -> Signed:
    """A leader-signed ``⟨v, x⟩`` (signer defaults to the real leader)."""
    if signer is None:
        signer = leader_of_view(view, config.n)
    return crypto.signatures.sign(
        signer,
        ProposalStatement(view=view, value=value, domain=config.seed_domain),
    )


def make_prepare(
    crypto: CryptoContext,
    config: ProtocolConfig,
    sender: ReplicaId,
    statement: Signed,
) -> Signed:
    """A correctly formed signed Prepare from ``sender``."""
    view = statement.payload.view
    sample = crypto.vrf.prove(
        sender,
        phase_seed(view, "prepare", config.seed_domain),
        config.sample_size,
    )
    return crypto.signatures.sign(sender, Prepare(statement=statement, sample=sample))


def make_commit(
    crypto: CryptoContext,
    config: ProtocolConfig,
    sender: ReplicaId,
    statement: Signed,
) -> Signed:
    view = statement.payload.view
    sample = crypto.vrf.prove(
        sender,
        phase_seed(view, "commit", config.seed_domain),
        config.sample_size,
    )
    return crypto.signatures.sign(sender, Commit(statement=statement, sample=sample))


def make_prepared_cert(
    crypto: CryptoContext,
    config: ProtocolConfig,
    view: View,
    value: Value,
    senders: Optional[Sequence[ReplicaId]] = None,
) -> Tuple[Signed, ...]:
    """A valid prepared certificate (requires the saturated config, where
    every sample contains every replica)."""
    statement = make_statement(crypto, config, view, value)
    if senders is None:
        senders = list(range(config.q))
    return tuple(make_prepare(crypto, config, s, statement) for s in senders)


def make_new_leader(
    crypto: CryptoContext,
    config: ProtocolConfig,
    sender: ReplicaId,
    view: View,
    prepared_view: View = 0,
    prepared_value: Optional[Value] = None,
    cert: Tuple[Signed, ...] = (),
) -> Signed:
    return crypto.signatures.sign(
        sender,
        NewLeader(
            view=view,
            prepared_view=prepared_view,
            prepared_value=prepared_value,
            cert=cert,
            domain=config.seed_domain,
        ),
    )


def make_propose(
    crypto: CryptoContext,
    config: ProtocolConfig,
    view: View,
    value: Value,
    justification: Optional[Tuple[Signed, ...]] = None,
    signer: Optional[ReplicaId] = None,
) -> Signed:
    if signer is None:
        signer = leader_of_view(view, config.n)
    statement = make_statement(crypto, config, view, value, signer=signer)
    return crypto.signatures.sign(
        signer,
        Propose(view=view, statement=statement, justification=justification),
    )


def quorum_new_leaders(
    crypto: CryptoContext,
    config: ProtocolConfig,
    view: View,
    prepared: Iterable[Tuple[ReplicaId, View, Value, Tuple[Signed, ...]]] = (),
) -> Tuple[Signed, ...]:
    """A deterministic quorum of NewLeader messages for ``view``.

    ``prepared`` lists senders that report a prepared value; all remaining
    quorum members report "never prepared".
    """
    messages = []
    prepared_senders = set()
    for sender, pview, pvalue, cert in prepared:
        prepared_senders.add(sender)
        messages.append(
            make_new_leader(
                crypto, config, sender, view, pview, pvalue, cert
            )
        )
    for sender in range(config.n):
        if len(messages) >= config.det_quorum:
            break
        if sender in prepared_senders:
            continue
        messages.append(make_new_leader(crypto, config, sender, view))
    return tuple(messages)
