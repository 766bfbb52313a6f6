"""Benchmark suite configuration.

Every bench prints its reproduction table through the ``report`` fixture,
which bypasses pytest's output capture so results land in the console (and
in ``bench_output.txt`` when teeing).  Result text is also appended to
``benchmarks/results/`` for later inspection.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report(request, capsys):
    """Callable fixture: ``report(text)`` prints uncaptured and archives."""
    RESULTS_DIR.mkdir(exist_ok=True)
    test_name = request.node.name

    def _report(text: str) -> None:
        banner = f"\n{'=' * 78}\n{test_name}\n{'=' * 78}\n"
        with capsys.disabled():
            print(banner + text)
        out_file = RESULTS_DIR / f"{request.node.module.__name__}.txt"
        with out_file.open("a") as fh:
            fh.write(banner + text + "\n")

    return _report
