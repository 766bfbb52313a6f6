"""Heap census of one trial: its tracemalloc peak and what it keeps, by line.

    PYTHONPATH=src python3 tools/heap_census.py probft none constant 1000 \
        --seed 4 [--f F] [--max-time T] [--top 15]

Builds ``cell_deployment_spec(MatrixCell(protocol, adversary, latency, n,
f), seed, max_time)`` (``f`` defaults to ``ProtocolConfig(n).f``) with
``track_memory=True`` and runs ``TrialContext.execute()`` — build and run —
under ``tracemalloc`` (one frame a trace).  Prints the trial's peak as
``RunResult.peak_mem_mb`` reads it, then, with the context still alive and
after a full collection, the heap it keeps: its total and the ``--top``
source lines by retained bytes (size, blocks, ``file:line``).  These are
the numbers of DESIGN.md "What a vote keeps".  Allocations are exact
functions of the cell up to interpreter caches, so two runs print nearly
the same lines; the peak is in MB of 2²⁰ bytes, as the harness reports it.
The last line of standard output is the census as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import tracemalloc
from typing import Any, Dict, Optional


def _where(trace_frame) -> str:
    path = os.path.relpath(trace_frame.filename)
    if "/repro/" in path:
        path = path[path.index("/repro/") + 1:]
    return f"{path}:{trace_frame.lineno}"


def census(
    protocol: str,
    adversary: str,
    latency: str,
    n: int,
    f: Optional[int] = None,
    seed: int = 1,
    max_time: float = 10_000.0,
    top: int = 15,
) -> Dict[str, Any]:
    """The peak of one ``execute()`` and the ``top`` lines of what the
    finished trial keeps."""
    from repro.config import ProtocolConfig
    from repro.harness.registry import MatrixCell, cell_deployment_spec
    from repro.harness.trial import TrialContext

    if f is None:
        f = ProtocolConfig(n=n).f
    cell = MatrixCell(protocol, adversary, latency, n=n, f=f)
    spec = dataclasses.replace(
        cell_deployment_spec(cell, seed, max_time), track_memory=True
    )
    gc.collect()
    tracemalloc.start(1)
    try:
        context = TrialContext(spec)
        result = context.execute()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        (
            tracemalloc.Filter(False, tracemalloc.__file__),
            tracemalloc.Filter(False, "<frozen importlib._bootstrap*>"),
        )
    )
    stats = snapshot.statistics("lineno")
    del context
    return {
        "cell": {
            "protocol": protocol, "adversary": adversary, "latency": latency,
            "n": n, "f": f, "seed": seed, "max_time": max_time,
        },
        "all_decided": result.all_decided,
        "messages": result.total_messages,
        "peak_mem_mb": result.peak_mem_mb,
        "kept_bytes": sum(stat.size for stat in stats),
        "kept_blocks": sum(stat.count for stat in stats),
        "lines": [
            {"where": _where(stat.traceback[0]), "bytes": stat.size, "blocks": stat.count}
            for stat in stats[:top]
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("protocol")
    parser.add_argument("adversary")
    parser.add_argument("latency")
    parser.add_argument("n", type=int)
    parser.add_argument("--f", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-time", type=float, default=10_000.0)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    out = census(
        args.protocol, args.adversary, args.latency, args.n, args.f,
        args.seed, args.max_time, args.top,
    )
    mib = 1 << 20
    print(
        f"peak {out['peak_mem_mb']:.2f} MB; kept {out['kept_bytes'] / mib:.2f} MiB "
        f"in {out['kept_blocks']:,} blocks ({out['messages']:,} messages, "
        f"all_decided={out['all_decided']})"
    )
    print(f"{'KiB':>10} {'blocks':>9}  line")
    for line in out["lines"]:
        print(f"{line['bytes'] / 1024:10.1f} {line['blocks']:9,}  {line['where']}")
    print(json.dumps({k: v for k, v in out.items() if k != "lines"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
