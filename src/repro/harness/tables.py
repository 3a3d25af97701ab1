"""Plain-text and markdown table rendering for experiment reports.

The harness prints tables in the same spirit as the paper's Table 1: one row
per algorithm (or per network size), columns for time and message complexity,
plus measured-to-predicted ratios.  The renderer is dependency-free.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_markdown_table", "format_float"]


def format_float(value: float, digits: int = 3) -> str:
    """Compact numeric formatting: integers stay integers, small floats get digits."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if value != value:  # NaN
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e15:
        return str(int(round(value)))
    if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
        return f"{value:.{digits}g}"
    return f"{value:.{digits}f}"


def _stringify_rows(rows: Iterable[Sequence[object]]) -> list[list[str]]:
    out = []
    for row in rows:
        out.append([cell if isinstance(cell, str) else format_float(cell) for cell in row])
    return out


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None) -> str:
    """Render an aligned plain-text table."""
    str_rows = _stringify_rows(rows)
    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have exactly one cell per header")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (used by EXPERIMENTS.md)."""
    str_rows = _stringify_rows(rows)
    headers = [str(h) for h in headers]
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have exactly one cell per header")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
