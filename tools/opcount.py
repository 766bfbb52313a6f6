"""Opcode and call census of one trial, per function.

    PYTHONPATH=src python3 tools/opcount.py probft none exponential 300 \
        --seed 5 --max-time 25 [--top 25] [--lines FUNCTION]

Builds ``cell_deployment_spec(MatrixCell(protocol, adversary, latency, n,
f), seed, max_time)`` (``f`` defaults to ``ProtocolConfig(n).f``), then
runs ``TrialContext.execute()`` — build and run — under ``sys.settrace``
with per-opcode events on, and counts every executed bytecode instruction
and every Python-level call (a ``call`` trace event: a function entered, or
a generator resumed), by function.  The counts are exact functions of the
cell, so two runs print the same numbers and a per-delivery change shows as
a count, not as a timing inside the box's noise.  Time is not measured:
tracing costs ~30x.

Prints the totals, the simulator's ``events_processed`` and the per-event
ratios, then the ``--top`` functions by opcodes (self: instructions
executed in that function's own frames).  ``--lines NAME`` adds a
per-line census of the functions whose name or qualified name is ``NAME``
(``_advance``, ``ColumnarVoteDispatch._walk``).  The last line
of standard output is the whole census as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Any, Dict, Optional


def census(
    protocol: str,
    adversary: str,
    latency: str,
    n: int,
    f: Optional[int] = None,
    seed: int = 1,
    max_time: float = 10_000.0,
    lines: Optional[str] = None,
) -> Dict[str, Any]:
    """Counts of one ``execute()``: totals, per function and, for the
    functions named ``lines``, per line."""
    from repro.config import ProtocolConfig
    from repro.harness.registry import MatrixCell, cell_deployment_spec
    from repro.harness.trial import TrialContext

    if f is None:
        f = ProtocolConfig(n=n).f
    cell = MatrixCell(protocol, adversary, latency, n=n, f=f)
    context = TrialContext(cell_deployment_spec(cell, seed, max_time))
    opcodes: Counter = Counter()
    calls: Counter = Counter()
    by_line: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            opcodes[code] += 1
            if lines in (code.co_name, code.co_qualname):
                by_line[code, frame.f_lineno or 0] += 1
        return local

    def tracer(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
            frame.f_trace_opcodes = True
            return local
        return None

    sys.settrace(tracer)
    try:
        result = context.execute()
    finally:
        sys.settrace(None)
    events = context.deployment.sim.events_processed

    def name(code) -> str:
        path = os.path.relpath(code.co_filename)
        if "/repro/" in path:
            path = path[path.index("/repro/") + 1:]
        return f"{path}:{code.co_firstlineno}:{code.co_qualname}"

    total_ops, total_calls = sum(opcodes.values()), sum(calls.values())
    functions = {
        name(code): {"opcodes": count, "calls": calls[code]}
        for code, count in opcodes.most_common()
    }
    return {
        "cell": {
            "protocol": protocol, "adversary": adversary, "latency": latency,
            "n": n, "f": f, "seed": seed, "max_time": max_time,
        },
        "all_decided": result.all_decided,
        "events": events,
        "opcodes": total_ops,
        "calls": total_calls,
        "opcodes_per_event": total_ops / events if events else None,
        "calls_per_event": total_calls / events if events else None,
        "functions": functions,
        "lines": {
            f"{name(code)}@{line}": count
            for (code, line), count in sorted(
                by_line.items(), key=lambda kv: (name(kv[0][0]), kv[0][1])
            )
        },
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
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--lines", default=None, metavar="FUNCTION")
    args = parser.parse_args(argv)
    out = census(
        args.protocol, args.adversary, args.latency, args.n, args.f,
        args.seed, args.max_time, args.lines,
    )
    print(
        f"{out['opcodes']:,} opcodes, {out['calls']:,} calls, "
        f"{out['events']:,} events: {out['opcodes_per_event']:.1f} opcodes "
        f"and {out['calls_per_event']:.2f} calls per event "
        f"(all_decided={out['all_decided']})"
    )
    print(f"{'opcodes':>12} {'calls':>9} {'per call':>9}  function")
    for fn, counts in list(out["functions"].items())[: args.top]:
        ops, n_calls = counts["opcodes"], counts["calls"]
        per = f"{ops / n_calls:9.1f}" if n_calls else f"{'-':>9}"
        print(f"{ops:12,} {n_calls:9,} {per}  {fn}")
    for where, count in out["lines"].items():
        print(f"{count:12,}  {where}")
    print(json.dumps({k: v for k, v in out.items() if k not in ("functions", "lines")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
