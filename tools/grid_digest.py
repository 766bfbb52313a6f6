"""One sha256 per run of the behaviour-preservation grid, plus a total.

    PYTHONPATH=src python3 tools/grid_digest.py [--out FILE] [--against FILE]

The grid is every protocol × n ∈ {16, 40} × every adversary × every latency
model × seeds 1-2 × ``track_bytes`` off/on (672 runs, f =
``ProtocolConfig(n).f``, ``max_time`` 5000), each one scenario-matrix cell
run through ``run_trial``.  A row is ``<sha256 of repr(RunResult)>  <cell>``;
the last line is the sha256 of all rows.  Save one checkout's rows with
``--out`` and run the other ``--against`` that file: every row whose hash
differs (or that only one side has) is printed with both hashes, and the
exit status is 1 if there is any.  A refactor that claims to change no
behaviour must leave every row equal.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.config import ProtocolConfig
from repro.harness.registry import (
    ADVERSARIES,
    LATENCIES,
    PROTOCOLS,
    MatrixCell,
    cell_deployment_spec,
)
from repro.harness.trial import run_trial

SIZES = (16, 40)
SEEDS = (1, 2)
MAX_TIME = 5000.0


def grid() -> Iterator[Tuple[MatrixCell, int]]:
    """Every (cell, seed) of the grid, in row order."""
    for protocol in PROTOCOLS:
        for n in SIZES:
            f = ProtocolConfig(n=n).f
            for adversary in ADVERSARIES:
                for latency in LATENCIES:
                    for seed in SEEDS:
                        for track_bytes in (False, True):
                            cell = MatrixCell(
                                protocol, adversary, latency, n=n, f=f,
                                track_bytes=track_bytes,
                            )
                            yield cell, seed


def rows() -> Iterator[str]:
    for cell, seed in grid():
        result = run_trial(cell_deployment_spec(cell, seed, MAX_TIME))
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        yield (
            f"{digest}  {cell.label} n={cell.n} seed={seed} "
            f"bytes={int(cell.track_bytes)}"
        )


def as_rows(lines: Iterable[str]) -> Dict[str, str]:
    """Digest lines as cell -> hash (a total line left out)."""
    out = {}
    for line in lines:
        digest, _, cell = line.rstrip("\n").partition("  ")
        if cell and not cell.startswith("total ("):
            out[cell] = digest
    return out


def differences(saved: Dict[str, str], now: Dict[str, str]) -> List[str]:
    """One line per cell whose hash differs between two digests (``-`` for
    the side without the cell), in ``now``'s row order, then ``saved``'s."""
    cells = [*now, *(cell for cell in saved if cell not in now)]
    return [
        f"differs  {cell}  saved {saved.get(cell, '-')}  now {now.get(cell, '-')}"
        for cell in cells
        if saved.get(cell) != now.get(cell)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows to this file")
    parser.add_argument(
        "--against", help="compare with the rows of this saved digest (exit 1 on a difference)"
    )
    args = parser.parse_args()
    saved = None
    if args.against:
        with open(args.against) as handle:
            saved = as_rows(handle)
    total = hashlib.sha256()
    lines = []
    for line in rows():
        total.update(line.encode() + b"\n")
        lines.append(line)
        print(line, flush=True)
    summary = f"{total.hexdigest()}  total ({len(lines)} rows)"
    print(summary)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines + [summary]) + "\n")
    if saved is None:
        return 0
    differ = differences(saved, as_rows(lines))
    for line in differ:
        print(line)
    print(f"{len(differ)} rows differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
