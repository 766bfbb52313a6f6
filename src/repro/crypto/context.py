"""Bundled crypto services, the per-process key pool, and *validated once*.

A :class:`CryptoContext` is a key registry plus the signature scheme and the
VRF over it.  It comes in two forms:

* **table-free** — :meth:`CryptoContext.create` (fresh keys) and
  :meth:`CryptoContext.pooled` (keys from the per-process pool).  Every
  ``verify`` recomputes, for every recipient.  This is the reference
  semantics and what ``reference=True`` deployments, the test oracle, run.
* **an instance view** — :meth:`CryptoContext.instance`: the same registry
  with a fresh :class:`~repro.crypto.verdicts.VerdictTable` behind the
  signature scheme, the VRF and :meth:`CryptoContext.validated`.  Every
  production consensus instance runs on one: a single-shot deployment for
  its whole life (the table is cleared in ``Deployment.close()``), an SMR
  slot from the moment it opens until it retires.

The table is the one place that remembers "this was checked".  A replica
multicasts *one* signed vote carrying *one* VRF proof to its whole sample,
and everything a recipient checks about it except ``i ∈ S`` is the same for
every recipient — so each check runs once per message object and is looked
up per delivery.  Verdicts are keyed by the *identity* of the object they
are about, and the entry holds that object: equality would let an
adversary's equal-looking copy inherit an honest object's verdict (or cost
an encode to compare), while a pinned identity can be neither forged nor
recycled.  What honest code produces through the registry's own keys —
``sign()``, ``prove()`` — is registered valid at birth; ``sign_with`` /
``prove_with``, the adversary's path, never is.  A born-valid envelope's tag
is computed only if someone reads it (``VerdictCounts.tags_computed``; a
table-free scheme counts on a ``VerdictCounts`` of its own): never on a
production trial without byte tracking.  There is no eviction and
no budget: a table holds what its instance sent and dies with it, so a
finished trial or a retired slot pins nothing.

The pool shares the one immutable thing, the :class:`KeyRegistry`, between
the contexts alive at once: a deployment built while another of the same
system size and seed is alive (production and its oracle twin) skips
re-deriving ``n`` key pairs.  It holds registries weakly, so a finished
trial leaves none behind.  It is deliberately per-process: worker
processes of a :class:`~repro.harness.parallel.ExperimentEngine` each grow
their own, so there is no cross-process state to keep identical.  All remembered verdicts
are pure functions of their inputs, so tabled and table-free contexts are
bit-identical by construction (and pinned by
``tests/test_reference_identity.py``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .keys import KeyRegistry
from .signatures import SignatureScheme
from .verdicts import VerdictTable
from .vrf import VRF

@dataclass(frozen=True)
class CryptoContext:
    """Registry + signature scheme + VRF, created from one master seed.

    Every replica (and the adversary, for its corrupted replicas) shares one
    context per consensus instance, mirroring the paper's "keys are
    distributed before the system starts" assumption (§2.1).
    """

    registry: KeyRegistry
    signatures: SignatureScheme
    vrf: VRF
    #: The instance's verdict table (``None``: every check recomputes).
    verdicts: Optional[VerdictTable] = None

    @staticmethod
    def _over(
        registry: KeyRegistry, verdicts: Optional[VerdictTable] = None
    ) -> "CryptoContext":
        return CryptoContext(
            registry=registry,
            signatures=SignatureScheme(registry, verdicts),
            vrf=VRF(registry, verdicts),
            verdicts=verdicts,
        )

    @staticmethod
    def create(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        """A table-free context over freshly derived keys."""
        return CryptoContext._over(KeyRegistry(n, master_seed))

    @staticmethod
    def pooled(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        """A table-free context over the registry of ``(n, master_seed)``
        that is alive in this process (a new one if none is).

        Each ``(n, master_seed)`` pair owns its own registry; the services
        around it are new on every call.
        """
        key = (n, master_seed)
        with _POOL_LOCK:
            registry = _POOL.get(key)
            if registry is not None:
                _POOL_STATS["hits"] += 1
                return CryptoContext._over(registry)
        # Build outside the lock: registry derivation is the expensive part.
        # A racing builder may have published meanwhile; keep the first
        # entry so concurrent callers share one registry.
        built = KeyRegistry(n, master_seed)
        with _POOL_LOCK:
            registry = _POOL.setdefault(key, built)
            _POOL_STATS["misses" if registry is built else "hits"] += 1
        return CryptoContext._over(registry)

    def instance(self, config) -> "CryptoContext":
        """This context's view for one consensus instance: the same registry
        and a fresh verdict table for ``config``.

        An instance view's own instances (the slots of a served deployment)
        count into its :class:`~repro.crypto.verdicts.VerdictCounts`, so
        the deployment's counters add up over its slots.
        """
        counts = self.verdicts.counts if self.verdicts is not None else None
        return CryptoContext._over(self.registry, VerdictTable(config, counts))

    def validated(
        self,
        config,
        kind: str,
        obj: object,
        check: Callable[[], object],
        context: Optional[tuple] = None,
    ):
        """``check()``'s verdict about ``obj``, computed once per object.

        ``check`` must be a pure function of ``obj``, ``context`` (a tuple of
        whatever else it reads) and the instance (``config`` and this
        context) — never of the recipient.
        The table is only consulted for the config it was built for; any
        other caller (or a table-free context) gets a fresh ``check()``.
        """
        table = self.verdicts
        if table is None or table.config is not config:
            return check()
        verdict = table.get(kind, obj, context)
        if verdict is None:
            verdict = table.put(kind, obj, check(), context)
        return verdict

    @property
    def n(self) -> int:
        return self.registry.n


#: Pool entries: the live key registry of each (n, master_seed).
_POOL: "weakref.WeakValueDictionary[Tuple[int, bytes], KeyRegistry]" = (
    weakref.WeakValueDictionary()
)
_POOL_LOCK = threading.Lock()
_POOL_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def clear_crypto_pool() -> None:
    """Forget every pooled registry and reset the hit/miss counters."""
    with _POOL_LOCK:
        _POOL.clear()
        _POOL_STATS["hits"] = 0
        _POOL_STATS["misses"] = 0


def crypto_pool_stats() -> Dict[str, int]:
    """Pool telemetry: ``{"hits", "misses", "size"}`` for this process
    (``size``: registries alive now)."""
    with _POOL_LOCK:
        return {
            "hits": _POOL_STATS["hits"],
            "misses": _POOL_STATS["misses"],
            "size": len(_POOL),
        }
