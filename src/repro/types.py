"""Core value types shared across the whole library.

The paper models a system of ``n`` replicas identified by unique IDs.  We use
0-based integer IDs internally (the paper uses 1-based IDs; only the
``leader(v)`` formula is affected, see :mod:`repro.core.leader`).

Values proposed to consensus are opaque byte strings from the protocol's point
of view; an application supplies a ``valid`` predicate (paper §2.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Annotated, Callable

#: A replica identifier, ``0 <= id < n``.
ReplicaId = int

#: The largest view a message may name: the synchronizer's shared columns
#: store views as ``int64`` and compute ``view + 1``.
MAX_VIEW = 2**62

#: A view number, ``0 <= view <= MAX_VIEW`` — the bounds are part of the type
#: (see :func:`repro.messages.base.conforms`).  View 1 is the initial view; 0
#: is "none" (nothing prepared, not yet started).
View = Annotated[int, 0, MAX_VIEW]

#: A consensus value: exactly ``bytes``.  ProBFT treats values as opaque;
#: equality is what matters.
Value = bytes

#: Application-defined validity predicate (paper §2.2, ``valid(x)``).
ValidPredicate = Callable[[Value], bool]


def always_valid(_value: Value) -> bool:
    """Default ``valid`` predicate accepting every value."""
    return True


class Phase(enum.Enum):
    """Protocol phases of a view (paper §3.1)."""

    PROPOSE = "propose"
    PREPARE = "prepare"
    COMMIT = "commit"


@dataclass(frozen=True)
class Decision:
    """A decision event recorded by a replica.

    Attributes:
        replica: the deciding replica.
        value: the decided value.
        view: the view in which the decision happened.
        time: simulated time of the decision.
    """

    replica: ReplicaId
    value: Value
    view: View
    time: float


@dataclass
class TraceEvent:
    """A structured protocol trace entry, useful for debugging and tests."""

    time: float
    replica: ReplicaId
    kind: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.time:10.3f}] r{self.replica:<3} {self.kind} {self.detail}"
