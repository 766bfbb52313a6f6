"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one consensus instance of a registered protocol
  (probft/pbft/hotstuff/streamlined) and print the outcome (the one path
  to a trial at non-default ``--l`` / ``--o``);
* ``figures``  — print every artifact of the paper (Figures 1a, 1b and 5,
  the §3.3 complexity and communication claims, the §7 constructions, and
  every lemma, theorem and corollary as one ledger): analytic columns beside
  measured ones, as committed in ``docs/figures.md``;
* ``serve``    — closed-loop SMR serving benchmark: simulated client
  populations (think times, in-flight windows, deterministic per-client
  RNGs) against a batching/pipelining deployment, with throughput and
  p50/p99/p999 latency columns; ``--matrix`` crosses load levels ×
  adversaries (equivocating leader, flooding);
* ``sweep``    — run a named scenario matrix (protocols × adversaries ×
  latency models) through the parallel experiment engine — in-process or on
  a process pool (``--workers K``, ``auto`` for the core count; results are
  bit-identical for every worker count), with optional adaptive budgets
  (``--target-width W --chunk K`` stops each cell once its agreement Wilson
  interval is narrow enough; budgets become worst-case caps) — and print a
  table or JSON report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional

from .config import ProtocolConfig
from .errors import ConfigError
from .harness.adaptive import DEFAULT_CHUNK
from .harness.tables import render_table


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def cmd_run(args) -> int:
    from .harness.trial import DeploymentSpec, run_trial

    config = ProtocolConfig(n=args.n, f=args.f, l=args.l, o=args.o)
    result = run_trial(
        DeploymentSpec(
            protocol=args.protocol,
            config=config,
            seed=args.seed,
            max_time=args.max_time,
        )
    )
    rows = [
        ["protocol", result.protocol],
        ["config", config.describe()],
        ["decided", f"{result.decided}/{result.n_correct}"],
        ["agreement", result.agreement_ok],
        ["decision views", result.decision_views],
        ["last decision time", round(result.last_decision_time, 3)],
        ["protocol messages", result.protocol_messages],
        ["total messages", result.total_messages],
    ]
    print(render_table(["field", "value"], rows, title="consensus run"))
    return 0 if (result.all_decided and result.agreement_ok) else 1


def cmd_figures(args) -> int:
    from .harness.figures import ARTIFACTS

    print(
        "# The paper's artifacts\n\n"
        "Output of `python -m repro figures` (regenerate with "
        "`PYTHONPATH=src python -m repro figures > docs/figures.md`).\n"
        "Analytic columns are closed forms of `repro.analysis`; measured "
        "columns run the\nprotocols at fixed seeds.  All at l = 2."
    )
    for artifact in ARTIFACTS:
        title, headers, rows = artifact()
        heading, *claims = title.splitlines()
        print(f"\n## {heading}\n")
        for claim in claims:
            print(f"{claim}\n")
        print(f"```\n{render_table(headers, rows)}\n```")
    return 0


def _fmt_latency(value) -> object:
    return "-" if value is None else round(value, 2)


def cmd_serve(args) -> int:
    from .smr.workload import ServingSpec, run_serving_trial, serving_cells

    # Every spec field given as an option, but the matrix's axes.
    fields = {f.name for f in dataclasses.fields(ServingSpec)}
    fields -= {"adversary", "load", "rotate_leaders", "arrival"}
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in fields and value is not None
    }
    if args.offered_rate is not None and args.arrival == "closed":
        print("--offered-rate needs --arrival open or both", file=sys.stderr)
        return 2
    if args.matrix:
        # --rotate-leaders / --arrival both add whole axes to the matrix.
        rotations = [False, True] if args.rotate_leaders else [False]
        arrivals = (
            ["closed", "open"] if args.arrival == "both" else [args.arrival]
        )
        specs = serving_cells(rotations=rotations, arrivals=arrivals, **overrides)
    else:
        if args.arrival == "both":
            print("--arrival both requires --matrix", file=sys.stderr)
            return 2
        specs = [
            ServingSpec(
                adversary=args.adversary,
                load=args.load,
                rotate_leaders=args.rotate_leaders,
                arrival=args.arrival,
                **overrides,
            )
        ]
    results = [run_serving_trial(spec) for spec in specs]
    if args.json:
        print(json.dumps([r.row() for r in results], indent=2, allow_nan=False))
    else:
        headers = [
            "adversary",
            "load",
            "rot",
            "arrival",
            "completed",
            "timed_out",
            "throughput",
            "p50",
            "p99",
            "p999",
            "logs_ok",
        ]
        rows = [
            [
                r.adversary,
                r.load,
                "on" if r.rotate_leaders else "off",
                r.arrival,
                f"{r.completed}/{r.issued}",
                r.timed_out,
                round(r.throughput, 3),
                _fmt_latency(r.p50_latency),
                _fmt_latency(r.p99_latency),
                _fmt_latency(r.p999_latency),
                r.logs_consistent,
            ]
            for r in results
        ]
        adversaries = ", ".join(sorted({spec.adversary for spec in specs}))
        loads = ", ".join(sorted({spec.load for spec in specs}))
        print(
            render_table(
                headers,
                rows,
                title=(
                    f"SMR serving over {specs[0].protocol} slots "
                    f"(adversaries {adversaries}; loads {loads})"
                ),
            )
        )
    ok = all(
        r.logs_consistent and r.completed > 0 and r.throughput > 0
        for r in results
    )
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    from .harness.parallel import ExperimentEngine, resolve_workers
    from .harness.registry import get_matrix, list_matrices, run_matrix

    if args.trials is not None and args.trials < 1:
        print(f"--trials must be >= 1, got {args.trials}", file=sys.stderr)
        return 2
    if args.target_width is not None and not 0.0 < args.target_width <= 1.0:
        print(
            f"--target-width must be in (0, 1], got {args.target_width}",
            file=sys.stderr,
        )
        return 2
    if args.chunk < 1:
        print(f"--chunk must be >= 1, got {args.chunk}", file=sys.stderr)
        return 2
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if workers < 0:
        print(f"--workers must be >= 0, got {workers}", file=sys.stderr)
        return 2
    if (
        args.matrix_opt is not None
        and args.matrix is not None
        and args.matrix_opt != args.matrix
    ):
        print(
            f"conflicting matrix names: positional {args.matrix!r} vs "
            f"--matrix {args.matrix_opt!r}; pass one or the other",
            file=sys.stderr,
        )
        return 2
    matrix_name = args.matrix_opt or args.matrix or "smoke"
    try:
        matrix = get_matrix(matrix_name)
    except KeyError:
        print(
            f"unknown matrix {matrix_name!r}; available: "
            f"{', '.join(list_matrices())}",
            file=sys.stderr,
        )
        return 2
    if args.n is not None or args.f is not None:
        matrix = matrix.with_size(
            args.n if args.n is not None else matrix.n, args.f
        )
        # Every cell builds this config: reject a bad size before any trial.
        ProtocolConfig(n=matrix.n, f=matrix.resolved_f())
    if args.track_memory:
        from dataclasses import replace as _replace

        matrix = _replace(matrix, track_memory=True)
    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
    # The report's execution label, by the rule ExperimentEngine runs by.
    backend_name = "pool" if workers > 1 else "serial"
    with ExperimentEngine(workers=workers) as engine:
        if profiler is not None:
            profiler.enable()
        try:
            report = run_matrix(
                matrix,
                trials=args.trials,
                master_seed=args.seed,
                engine=engine,
                max_time=args.max_time,
                target_width=args.target_width,
                chunk=args.chunk,
            )
        finally:
            if profiler is not None:
                profiler.disable()
    if profiler is not None:
        _write_profile(profiler, args.profile)
    if args.json:
        # NaN (e.g. mean decision time when nothing decided) is not valid
        # JSON; emit null so strict parsers accept the report.  Execution
        # metadata (backend/workers) is a separate key so consumers
        # comparing *results* across worker counts can diff "matrix"+"rows"
        # directly — those are bit-identical for every worker count.
        rows = [
            {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in row.items()
            }
            for row in report.rows
        ]
        payload = {
            "matrix": report.matrix,
            "n": matrix.n,
            "f": matrix.resolved_f(),
            "trials": report.trials,
            "master_seed": report.master_seed,
            "workers": workers,
            "backend": backend_name,
            "rows": rows,
        }
        if report.adaptive:
            # Adaptive metadata: what the rules were evaluated against
            # (rows carry the per-cell trials_used/stop_reason/
            # interval_width outcome columns).
            payload["target_width"] = report.target_width
            payload["chunk"] = report.chunk
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        budget_note = (
            f"{report.trials} trial(s)/cell"
            if report.trials is not None
            else "per-cell budget trials"
        )
        if report.adaptive:
            width_note = (
                f"width {report.target_width}"
                if report.target_width is not None
                else "matrix widths"
            )
            budget_note += (
                f" (adaptive: {width_note}, checkpoint every "
                f"{report.chunk})"
            )
        print(
            render_table(
                report.headers,
                report.table_rows(),
                title=(
                    f"scenario matrix {report.matrix!r}: {budget_note}, "
                    f"master seed {report.master_seed}, "
                    f"workers={workers}, backend={backend_name}"
                ),
            )
        )
    return 0 if report.all_agreement_ok else 1


def _write_profile(profiler, path_str: str) -> None:
    """Persist a sweep profile: raw ``.pstats`` plus a cumulative top-25
    table, side by side.  The table also goes to stderr so it never
    corrupts a ``--json`` report on stdout."""
    import io
    import pathlib
    import pstats

    path = pathlib.Path(path_str)
    if path.suffix != ".pstats":
        path = path.with_name(path.name + ".pstats")
    profiler.dump_stats(path)
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    table = buf.getvalue()
    table_path = path.with_suffix(".top25.txt")
    table_path.write_text(table)
    print(
        f"profile: wrote {path} (load with pstats/snakeviz) and {table_path}",
        file=sys.stderr,
    )
    print(table, file=sys.stderr)


def _matrices_epilog() -> str:
    """Named-matrix reference shown in ``repro sweep --help``."""
    from .harness.registry import MATRICES

    width = max(len(name) for name in MATRICES)
    lines = [
        f"  {name:<{width}}  {MATRICES[name].description}"
        for name in sorted(MATRICES)
    ]
    return (
        "named matrices:\n"
        + "\n".join(lines)
        + "\n\nreports carry per-cell message-cost columns (mean_messages/"
        "messages_stderr);\nmatrices declared with track_bytes (e.g. "
        "byte-costs) also fill the byte-cost\ncolumns (mean_bytes/"
        "bytes_stderr) from canonical message encodings.\n\n"
        "adaptive budgets: --target-width W stops each cell at the first\n"
        "checkpoint (every --chunk K trials) where its agreement-rate "
        "Wilson\ninterval is <= W wide; budgets become worst-case caps and "
        "rows gain\ntrials_used/stop_reason/interval_width.  Adaptive "
        "estimates are\nbit-identical to the same-length prefix of the "
        "fixed-budget run, at\nany --workers.  Rough cost at a rate near "
        "0/1: width W resolves after\n~3.84*(1-W)/W trials (73 for W=0.05; "
        "pick K a small fraction of that).\nMatrices can also declare "
        "target_width(s) themselves (e.g. adaptive-demo)."
    )


def build_parser() -> argparse.ArgumentParser:
    from .harness.registry import registered_adversaries
    from .harness.trial import list_protocols
    from .smr.workload import LOAD_LEVELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProBFT reproduction toolkit (PODC 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one consensus instance")
    p_run.add_argument(
        "protocol", choices=list_protocols(), help="protocol"
    )
    p_run.add_argument("--n", type=int, default=20, help="number of replicas")
    p_run.add_argument("--f", type=int, default=None, help="fault threshold")
    p_run.add_argument("--l", type=float, default=2.0, help="quorum constant l")
    p_run.add_argument("--o", type=float, default=1.7, help="redundancy o")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-time", type=_positive_float, default=5000.0)
    p_run.set_defaults(fn=cmd_run)

    p_fig = sub.add_parser(
        "figures", help="print every artifact of the paper, analytic and measured"
    )
    p_fig.set_defaults(fn=cmd_figures)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "SMR serving benchmark (adversaries x loads, closed- or "
            "open-loop arrivals, optional leader rotation)"
        ),
    )
    p_serve.add_argument(
        "--protocol",
        default=None,
        help="slot protocol: a registered protocol on the ProBFT skeleton "
        "(probft, the default, or pbft)",
    )
    p_serve.add_argument(
        "--adversary",
        choices=registered_adversaries(),
        default="none",
        help="registered Byzantine behaviour whose seats every slot hosts "
        "(one that acts outside its seats exits 2)",
    )
    p_serve.add_argument(
        "--load",
        choices=list(LOAD_LEVELS),
        default="high",
        help="load-level preset (client count, window, think time)",
    )
    p_serve.add_argument(
        "--matrix",
        action="store_true",
        help="run every adversary x load cell instead of a single one",
    )
    p_serve.add_argument("--n", type=int, default=None, help="system size")
    p_serve.add_argument("--f", type=int, default=None, help="fault threshold")
    p_serve.add_argument("--num-clients", type=int, default=None)
    p_serve.add_argument("--requests-per-client", type=int, default=None)
    p_serve.add_argument("--think-time", type=float, default=None)
    p_serve.add_argument("--window", type=int, default=None)
    p_serve.add_argument("--batch-size", type=int, default=None)
    p_serve.add_argument("--pipeline", type=int, default=None)
    p_serve.add_argument("--max-pending", type=int, default=None)
    p_serve.add_argument("--seed", type=int, default=None)
    p_serve.add_argument("--timeout", type=float, default=None)
    p_serve.add_argument("--max-time", type=_positive_float, default=None)
    p_serve.add_argument(
        "--rotate-leaders",
        action="store_true",
        help=(
            "rotate slot leadership (view-1 leader of slot s is (s+1) mod n); "
            "with --matrix, adds rotation off/on as a matrix axis"
        ),
    )
    p_serve.add_argument(
        "--arrival",
        choices=["closed", "open", "both"],
        default="closed",
        help=(
            "arrival discipline: closed loop (think/window) or open-loop "
            "Poisson arrivals; 'both' adds the axis to --matrix"
        ),
    )
    p_serve.add_argument(
        "--offered-rate",
        type=float,
        default=None,
        help=(
            "aggregate open-loop arrival rate, requests per simulated second "
            "(--arrival open or both)"
        ),
    )
    p_serve.add_argument(
        "--json", action="store_true", help="emit JSON rows instead of a table"
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a named scenario matrix through the parallel engine",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_matrices_epilog(),
    )
    p_sweep.add_argument(
        "matrix",
        nargs="?",
        default=None,
        help="matrix name (see the list below); default smoke",
    )
    p_sweep.add_argument(
        "--matrix",
        dest="matrix_opt",
        default=None,
        metavar="NAME",
        help="matrix name (alias for the positional argument)",
    )
    p_sweep.add_argument(
        "--trials",
        type=int,
        default=None,
        help=(
            "uniform seeded trials per cell; omit to use the matrix's "
            "per-cell trial budgets (fallback 1)"
        ),
    )
    p_sweep.add_argument(
        "--workers",
        default="0",
        metavar="N|auto",
        help=(
            "worker count; 0/1 = in-process serial, 'auto' = the machine's "
            "core count (results are identical for every value)"
        ),
    )
    p_sweep.add_argument(
        "--target-width",
        type=float,
        default=None,
        metavar="W",
        help=(
            "adaptive budgets: stop each cell at the first checkpoint "
            "where its agreement-rate Wilson interval is <= W wide (the "
            "cell's trial budget becomes the worst-case cap); rows gain "
            "trials_used/stop_reason columns"
        ),
    )
    p_sweep.add_argument(
        "--chunk",
        type=int,
        default=DEFAULT_CHUNK,
        metavar="K",
        help=(
            "adaptive checkpoint period: stopping rules are evaluated "
            f"every K trials (default {DEFAULT_CHUNK}); smaller K stops "
            "closer to the target at more checkpoint overhead"
        ),
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed")
    p_sweep.add_argument("--n", type=int, default=None, help="override system size")
    p_sweep.add_argument("--f", type=int, default=None, help="override fault count")
    p_sweep.add_argument("--max-time", type=_positive_float, default=5000.0)
    p_sweep.add_argument(
        "--track-memory",
        action="store_true",
        help=(
            "record peak heap per trial (adds a mean_peak_mem_mb report "
            "column; roughly doubles wall clock)"
        ),
    )
    p_sweep.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of a table"
    )
    p_sweep.add_argument(
        "--profile",
        nargs="?",
        const="sweep_profile.pstats",
        default=None,
        metavar="PATH",
        help=(
            "cProfile the sweep: write raw stats to PATH (default "
            "sweep_profile.pstats) plus a top-25 cumulative table next to "
            "it (PATH with .top25.txt), and echo the table to stderr; with "
            "--workers > 1 only the coordinating process is profiled, so "
            "pair with the default --workers 0 to see trial internals"
        ),
    )
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # A bad --n/--f is an argument error (exit 2), never a result (1).
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
