"""Plain-text table rendering for CLI and example output.

The paper's figures are reproduced as printed tables (one row per x-value,
one column per curve; :mod:`repro.harness.figures`), which is enough to
audit their shape without a plotting stack.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence


def format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e7):
            return f"{value:.3e}"
        if abs(value - round(value)) < 1e-9 and abs(value) < 1e7:
            return str(int(round(value)))
        return f"{value:.6f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table."""
    cells = [[format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in [headers, ["-" * w for w in widths], *cells]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
