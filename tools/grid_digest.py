"""One sha256 per run of the behaviour-preservation grid, plus a total.

    PYTHONPATH=src python3 tools/grid_digest.py [--out FILE]

The grid is every protocol × n ∈ {16, 40} × every adversary × every latency
model × seeds 1-2 × ``track_bytes`` off/on (672 runs, f =
``ProtocolConfig(n).f``, ``max_time`` 5000), each one scenario-matrix cell
run through ``run_trial``.  A row is ``<sha256 of repr(RunResult)>  <cell>``;
the last line is the sha256 of all rows.  Run it on two checkouts and
``diff`` the outputs: a refactor that claims to change no behaviour must
leave every row equal.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Iterator, Tuple

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the rows to this file")
    args = parser.parse_args()
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
