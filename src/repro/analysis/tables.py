"""ASCII table rendering for experiment reports.

The experiment drivers and ``repro regen`` print their rows through
this module, which keeps the formatting consistent and dependency-free;
``EXPERIMENTS.md`` is every table in its markdown form.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence


def format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Render an aligned ASCII table."""
    cells = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i])
                          for i, cell in enumerate(row))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-flavoured markdown table (``--markdown``)."""
    cells = [[format_cell(v) for v in row] for row in rows]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in cells)
    return "\n".join(lines)
