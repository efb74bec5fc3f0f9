"""Rendering helpers: results and tables as plain text, markdown, or CSV.

The CLI and the benchmark harness share one small formatting layer so
every surface prints the same numbers the same way. Nothing here computes;
it only renders result objects produced elsewhere.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .core.result import MaintenanceResult, MaxTrussResult

_FORMATS = ("text", "markdown", "csv")


def render_table(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    fmt: str = "text",
) -> str:
    """Render a header + rows in the requested format.

    ``text`` aligns columns with padding; ``markdown`` emits a pipe table;
    ``csv`` emits comma-separated values with minimal quoting.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {', '.join(_FORMATS)}")
    string_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    header = [str(cell) for cell in header]

    if fmt == "csv":
        def quote(cell: str) -> str:
            if "," in cell or '"' in cell:
                return '"' + cell.replace('"', '""') + '"'
            return cell

        lines = [",".join(quote(cell) for cell in header)]
        lines += [",".join(quote(cell) for cell in row) for row in string_rows]
        return "\n".join(lines)

    widths = [
        max(len(header[col]), *(len(row[col]) for row in string_rows))
        if string_rows
        else len(header[col])
        for col in range(len(header))
    ]
    if fmt == "markdown":
        def line(cells: Sequence[str]) -> str:
            return "| " + " | ".join(
                cell.ljust(width) for cell, width in zip(cells, widths)
            ) + " |"

        separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
        return "\n".join(
            [line(header), separator] + [line(row) for row in string_rows]
        )

    def text_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    return "\n".join([text_line(header), rule] + [text_line(r) for r in string_rows])


def render_result(result: MaxTrussResult, fmt: str = "text") -> str:
    """One computation result as a small two-column table."""
    rows = [
        ("algorithm", result.algorithm),
        ("k_max", result.k_max),
        ("truss edges", result.truss_edge_count),
        ("truss vertices", len(result.truss_vertices())),
        ("read I/Os", result.io.read_ios),
        ("write I/Os", result.io.write_ios),
        ("peak model memory (B)", result.peak_memory_bytes),
        ("elapsed (s)", f"{result.elapsed_seconds:.3f}"),
    ]
    physical = getattr(result.io, "physical", None)
    if physical is not None:
        # The file backend moved real bytes alongside the charged model
        # I/Os; report both so the two ledgers stay distinguishable.
        rows += [
            ("physical bytes read", physical.bytes_read),
            ("physical bytes written", physical.bytes_written),
            ("fsyncs", physical.fsyncs),
        ]
    return render_table(("metric", "value"), rows, fmt)


def render_comparison(results: Iterable[MaxTrussResult], fmt: str = "text") -> str:
    """Several algorithms side by side (a Fig-5-style mini table)."""
    rows = [
        (
            result.algorithm,
            result.k_max,
            result.truss_edge_count,
            result.io.total_ios,
            result.peak_memory_bytes,
            f"{result.elapsed_seconds * 1e3:.1f}",
        )
        for result in results
    ]
    header = ("algorithm", "k_max", "edges", "io_total", "peak_mem_B", "time_ms")
    return render_table(header, rows, fmt)


def render_metrics(snapshot: dict, fmt: str = "text") -> str:
    """A :meth:`~repro.observability.MetricsRegistry.snapshot` as tables.

    Operates on the plain snapshot dict (``counters`` / ``gauges`` /
    ``histograms``), so callers can render metrics shipped inside a JSON
    report without constructing registry objects.
    """
    blocks = []
    rows = [(name, value) for name, value in snapshot.get("counters", {}).items()]
    rows += [
        (name, f"{value:.4g}")
        for name, value in snapshot.get("gauges", {}).items()
    ]
    if rows:
        blocks.append(render_table(("metric", "value"), rows, fmt))
    histograms = snapshot.get("histograms", {})
    if histograms:
        hist_rows = [
            (
                name,
                payload["count"],
                f"{payload['mean']:.4g}",
                f"{payload['max']:.4g}",
                f"{payload['sum']:.4g}",
            )
            for name, payload in histograms.items()
        ]
        blocks.append(render_table(
            ("histogram", "count", "mean", "max", "sum"), hist_rows, fmt
        ))
    return "\n".join(blocks) if blocks else "no metrics recorded"


def render_maintenance_log(
    results: Iterable[MaintenanceResult], fmt: str = "text"
) -> str:
    """An update stream's outcomes as one table."""
    rows = [
        (
            result.operation,
            f"({result.edge[0]},{result.edge[1]})",
            result.k_max_before,
            result.k_max_after,
            result.mode,
            result.io.total_ios,
            f"{result.elapsed_seconds * 1e3:.2f}",
        )
        for result in results
    ]
    header = ("op", "edge", "k_before", "k_after", "mode", "io", "ms")
    return render_table(header, rows, fmt)
