"""Message plumbing shared by all protocols."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ..crypto.verdicts import well_formed
from ..types import ReplicaId, Value, View


#: Per-class field-name tuples: ``dataclasses.fields`` rebuilds Field
#: objects on every call, and ``canonical()`` sits on the signing hot path.
_FIELD_NAMES: dict = {}


class CanonicalMessage:
    """Mixin giving dataclasses a canonical encoding for signing/hashing.

    The encoding is ``(ClassName, field values...)``; nested messages and
    crypto objects recurse through their own ``canonical()``.
    """

    def canonical(self) -> Any:
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(
                f.name for f in dataclasses.fields(self)  # type: ignore[arg-type]
            )
        return (cls.__name__,) + tuple(getattr(self, n) for n in names)


@dataclass(frozen=True)
class ProposalStatement(CanonicalMessage):
    """The leader-signed inner statement ``⟨v, x⟩_leader``.

    Every Prepare/Commit message carries (a signed copy of) this statement,
    which is what makes leader equivocation *provable*: two validly signed
    statements for the same view with different values are evidence.

    ``domain`` scopes the statement to one consensus instance (see
    :attr:`repro.config.ProtocolConfig.seed_domain`).
    """

    view: View
    value: Value
    domain: str = ""

    @property
    def keyable(self) -> bool:
        """False for a malformed statement: a value is a ``Value`` (exactly
        ``bytes``, see :func:`~repro.crypto.verdicts.well_formed`) —
        quorums are keyed by it, ``None`` stands for "nothing prepared" and
        SMR decodes it as a batch."""
        return well_formed(self.value, Value)

    def conflicts_with(self, other: "ProposalStatement") -> bool:
        """Same instance and view, different value — the equivocation
        condition (Algorithm 1 line 23)."""
        return (
            self.domain == other.domain
            and self.view == other.view
            and self.value != other.value
        )
