"""Paper-versus-measured report formatting.

Every benchmark prints its figure/table through these helpers so
``pytest benchmarks/ --benchmark-only`` output reads like the paper's
evaluation section, and EXPERIMENTS.md can be assembled from the same
rows.
"""

from __future__ import annotations


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Plain fixed-width table with a title banner."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["", "=" * max(len(title), 8), title, "=" * max(len(title), 8)]
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def ktx(value_tps: float) -> str:
    return f"{value_tps / 1000.0:.2f}"


def ms(value_seconds: float) -> str:
    return f"{value_seconds * 1000.0:.1f}"
