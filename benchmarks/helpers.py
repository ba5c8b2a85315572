"""Shared benchmark utilities: table rendering.

Every bench regenerates one table/figure of the paper's evaluation and
prints the rows, so paper-vs-measured comparisons can be refreshed by
running ``pytest benchmarks/ --benchmark-only -s``.  (The standing
wall-clock benchmark is ``bench/``, not this directory.)
"""

from __future__ import annotations

from typing import Sequence


def emit_table(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render and print one figure's data table."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = f"\n=== {name} ===\n" + "\n".join(lines) + "\n"
    print(text)
    return text


def fmt(value, digits: int = 1) -> str:
    """Format a numeric cell (None -> empty)."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"
