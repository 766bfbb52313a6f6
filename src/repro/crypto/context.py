"""Bundled crypto services for one deployment, plus the per-process pool.

Two construction paths:

* :meth:`CryptoContext.create` — a fresh, uncached context (plain
  :class:`SignatureScheme` / :class:`VRF`).  The reference semantics.
* :meth:`CryptoContext.pooled` — what deployments use.  A per-process pool
  keyed by ``(n, master_seed)`` shares the one thing that is safe to keep
  indefinitely, the immutable :class:`KeyRegistry`: rebuilding the same
  deployment (same system size, same seed) skips re-deriving ``n`` key
  pairs.  The signature and VRF services memoize verification — the
  simulation's hot path, since every vote is verified by each of its
  recipients — and are created fresh per call: their memos are keyed by
  object identity and pin the envelopes and outputs they have seen, so
  scoping them to one deployment means a finished trial holds nothing.
  All cached computations are pure functions of their inputs, so pooled
  and fresh contexts are bit-identical by construction (and pinned by
  tests).

The pool is deliberately per-process: worker processes of a
:class:`~repro.harness.parallel.ExperimentEngine` each grow their own pool,
which keeps the bit-identity guarantee trivially (no cross-process state)
while still amortizing key setup across same-seed trials a worker runs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

from .keys import KeyRegistry
from .signatures import MemoizedSignatureScheme, SignatureScheme
from .vrf import VRF, MemoizedVRF

#: Upper bound on pooled contexts kept alive; least-recently-used entries
#: are evicted first.  Large sweeps touch many ``(n, seed)`` pairs — the
#: bound keeps the pool from holding every registry ever built.
POOL_MAX_ENTRIES = 128

#: Byte-budget bounds for the per-deployment memo caches.  The floor keeps
#: small deployments from thrashing; the ceiling caps what one deployment
#: may pin — at n=20000 an uncapped 4n-entry VRF memo would pin gigabytes of
#: expanded sample tuples.
MEMO_BUDGET_FLOOR = 32 << 20  # 32 MiB
MEMO_BUDGET_CEILING = 512 << 20  # 512 MiB


def memo_budget(n: int) -> Tuple[int, int]:
    """``(byte_budget, entry_bytes)`` for the size-``n`` VRF memo caches.

    A trial proves ~2n+1 sampler keys; each memo entry pins an output whose
    sample tuple has ``s = min(n, ceil(1.7·ceil(2√n)))`` member ids
    (~40 bytes per id of tuple slot + int object) plus fixed overhead.  The
    ideal budget covers ``4n`` entries (two warm trials, the PR 7 cap) but
    is clamped to [floor, ceiling] so the cap scales with *bytes*, not
    entry counts — past n≈10⁴ the ceiling binds and eviction counters (see
    ``MemoizedVRF.evictions``) make the resulting thrash observable.
    """
    q = math.ceil(2.0 * math.sqrt(n))
    s_est = min(n, math.ceil(1.7 * q))
    entry_bytes = 40 * s_est + 160
    ideal = (4 * n + 64) * entry_bytes
    budget = min(MEMO_BUDGET_CEILING, max(MEMO_BUDGET_FLOOR, ideal))
    return budget, entry_bytes


@dataclass(frozen=True)
class CryptoContext:
    """Registry + signature scheme + VRF, created from one master seed.

    Every replica (and the adversary, for its corrupted replicas) shares one
    context per deployment, mirroring the paper's "keys are distributed
    before the system starts" assumption (§2.1).
    """

    registry: KeyRegistry
    signatures: SignatureScheme
    vrf: VRF

    @staticmethod
    def create(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        registry = KeyRegistry(n, master_seed)
        return CryptoContext(
            registry=registry,
            signatures=SignatureScheme(registry),
            vrf=VRF(registry),
        )

    @staticmethod
    def pooled(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        """A memoizing context over the pooled registry of ``(n, master_seed)``.

        Only the :class:`KeyRegistry` comes from the pool.  The signature
        scheme and the VRF are new on every call, sized for one trial (see
        :func:`memo_budget`), and die with the deployment that asked for
        them.  Results are bit-identical to :meth:`create` (memoization
        caches pure functions only), and each ``(n, master_seed)`` pair owns
        its own registry.
        """
        key = (n, master_seed)
        with _POOL_LOCK:
            registry = _POOL.get(key)
            if registry is not None:
                _POOL.move_to_end(key)
                _POOL_STATS["hits"] += 1
        if registry is None:
            # Build outside the lock: registry derivation is the expensive
            # part.  A racing builder may have published meanwhile; keep the
            # first entry so concurrent callers share one registry.
            built = KeyRegistry(n, master_seed)
            with _POOL_LOCK:
                registry = _POOL.get(key)
                if registry is None:
                    _POOL_STATS["misses"] += 1
                    _POOL[key] = registry = built
                    while len(_POOL) > POOL_MAX_ENTRIES:
                        _POOL.popitem(last=False)
                else:
                    _POOL_STATS["hits"] += 1
        # A trial proves ~2n+1 sampler keys (prepare + commit per replica,
        # plus the leader's propose) and signs ~2n vote envelopes; a fixed
        # entry bound FIFO-thrashes past n≈4000, while an uncapped 4n-entry
        # bound pins gigabytes past n≈10⁴.  Budget by bytes instead and let
        # the eviction counters expose any thrash.
        budget, entry_bytes = memo_budget(n)
        return CryptoContext(
            registry=registry,
            # Envelope entries pin shallow object graphs (~1 KiB amortized;
            # the fat sample tuples belong to the VRF memo), so the budget
            # admits 4n+64 entries until the ceiling binds.
            signatures=MemoizedSignatureScheme(
                registry,
                byte_budget=min(
                    MEMO_BUDGET_CEILING,
                    max(MEMO_BUDGET_FLOOR, (4 * n + 64) * 1024),
                ),
                entry_bytes=1024,
            ),
            vrf=MemoizedVRF(
                registry, byte_budget=budget, entry_bytes=entry_bytes
            ),
        )

    @property
    def n(self) -> int:
        return self.registry.n


#: Pool entries: the key registry of each (n, master_seed).
_POOL: "OrderedDict[Tuple[int, bytes], KeyRegistry]" = OrderedDict()
_POOL_LOCK = threading.Lock()
_POOL_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def clear_crypto_pool() -> None:
    """Drop every pooled registry and reset the hit/miss counters."""
    with _POOL_LOCK:
        _POOL.clear()
        _POOL_STATS["hits"] = 0
        _POOL_STATS["misses"] = 0


def crypto_pool_stats() -> Dict[str, int]:
    """Pool telemetry: ``{"hits", "misses", "size"}`` for this process."""
    with _POOL_LOCK:
        return {
            "hits": _POOL_STATS["hits"],
            "misses": _POOL_STATS["misses"],
            "size": len(_POOL),
        }
