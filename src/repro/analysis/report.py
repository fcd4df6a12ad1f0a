"""Plain-text rendering of tables and figure series.

The benchmark harness prints the rows/series each paper table or figure
reports; these helpers keep that output aligned and readable in a
terminal or a CI log.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.series import Series

__all__ = ["render_table", "render_series_table", "format_si"]


def format_si(value: float, unit: str = "") -> str:
    """Format with SI magnitude suffixes: 812345 → ``'812.3K'``."""
    magnitude = abs(value)
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if magnitude >= threshold:
            return f"{value / threshold:.3g}{suffix}{unit}"
    return f"{value:.4g}{unit}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def fmt(cells: Sequence[str]) -> str:
        """Pad one row to the column widths."""
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)


def render_series_table(series_list: Sequence[Series], title: Optional[str] = None) -> str:
    """Render multiple series sharing an x axis as one table.

    Series with differing x grids are merged on the union of x values;
    missing points show as ``-``.
    """
    if not series_list:
        return title or ""
    xs = sorted({x for s in series_list for x in s.x})
    headers = [series_list[0].x_label] + [s.label for s in series_list]
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for s in series_list:
            y = s.y_at(x)
            row.append("-" if y is None else f"{y:.6g}")
        rows.append(row)
    return render_table(headers, rows, title=title)
