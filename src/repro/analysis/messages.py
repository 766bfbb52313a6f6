"""Message and step counts (Figure 1, §3.3).

Conventions (matching both the paper's formulas and our simulator's
accounting):

* a broadcast reaches the ``n−1`` *other* replicas;
* a VRF multicast reaches all ``s`` sample members; the expected number of
  network messages is ``s·(n−1)/n`` (a replica may sample itself), and the
  simple formula uses ``s``;
* synchronizer (Wish) traffic is excluded — the paper compares protocol
  messages only, noting linear-cost synchronizers exist [31, 46].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .quorum_probability import _sizes

# Good-case communication steps (Figure 1a).
PBFT_STEPS = 3
PROBFT_STEPS = 3
HOTSTUFF_STEPS = 8  # incl. the NewView round; 7 without it


def pbft_messages(n: int) -> int:
    """PBFT good case: 1 broadcast (Propose) + 2 all-to-all rounds.

    ``(n−1) + 2·n·(n−1)``.
    """
    return (n - 1) + 2 * n * (n - 1)


def hotstuff_messages(n: int) -> int:
    """Basic HotStuff good case: 8 linear exchanges (incl. NewView).

    NewView ``n−1`` + 4 proposals ``4(n−1)`` + 3 vote rounds ``3(n−1)``.
    """
    return 8 * (n - 1)


def probft_messages(
    n: int, o: float, l: float = 2.0, continuous: bool = False
) -> float:
    """ProBFT good case: 1 broadcast + 2 sample-multicast rounds.

    Integer mode (default) uses the implementation's sizes
    ``q = ⌈l√n⌉, s = ⌈o·q⌉``: ``(n−1) + 2·n·s``.
    Continuous mode uses the paper's smooth curve ``(n−1) + 2·n·o·l·√n``
    (what Figure 1b plots).
    """
    if continuous:
        return (n - 1) + 2.0 * n * o * l * math.sqrt(n)
    _q, s = _sizes(n, o, l)
    return (n - 1) + 2 * n * s


def probft_expected_network_messages(n: int, o: float, l: float = 2.0) -> float:
    """Expected messages actually traversing the network (self-sends excluded):
    ``(n−1) + 2·n·s·(n−1)/n``."""
    _q, s = _sizes(n, o, l)
    return (n - 1) + 2.0 * n * s * (n - 1) / n


def probft_to_pbft_ratio(n: int, o: float, l: float = 2.0) -> float:
    """Fraction of PBFT's messages ProBFT uses (the paper's 18–25% claim
    holds over Figure 1b's upper range; at n=100 the ratio is ~35%)."""
    return probft_messages(n, o, l) / pbft_messages(n)


@dataclass(frozen=True)
class ComplexityRow:
    """One row of the §3.3 complexity comparison."""

    protocol: str
    steps: int
    message_complexity: str
    communication_complexity: str
    best_case_messages: str


def complexity_table() -> List[ComplexityRow]:
    """The §3.3 complexity claims, as data (checked against measurements)."""
    return [
        ComplexityRow(
            protocol="PBFT",
            steps=PBFT_STEPS,
            message_complexity="O(n^2)",
            communication_complexity="O(n^2)",
            best_case_messages="Omega(n^2)",
        ),
        ComplexityRow(
            protocol="HotStuff",
            steps=HOTSTUFF_STEPS,
            message_complexity="O(n)",
            communication_complexity="O(n)",
            best_case_messages="Omega(n)",
        ),
        ComplexityRow(
            protocol="ProBFT",
            steps=PROBFT_STEPS,
            message_complexity="O(n*sqrt(n))",
            communication_complexity="O(n^2*sqrt(n)) on view-change",
            best_case_messages="Omega(n*sqrt(n))",
        ),
    ]


def figure1b_series(
    n_values: Sequence[int], o_values: Sequence[float] = (1.6, 1.7, 1.8)
) -> dict:
    """All Figure 1b curves: PBFT, HotStuff, and ProBFT per ``o``.

    Returns ``{label: [(n, messages), ...]}``.
    """
    series = {
        "PBFT": [(n, float(pbft_messages(n))) for n in n_values],
        "HotStuff": [(n, float(hotstuff_messages(n))) for n in n_values],
    }
    for o in o_values:
        series[f"ProBFT o={o}"] = [
            (n, float(probft_messages(n, o))) for n in n_values
        ]
    return series
