"""Trace analysis: summaries and A/B diffs of recorded span trees.

The raw trace is a stream of span records (children close before their
parents, linked by ``id``/``parent``). This module turns one stream into
the report a performance investigation actually starts from:

* **top-N spans by charged I/O and by wall-clock**, ranked on *self*
  cost (a parent's delta includes its children; ranking on inclusive
  cost would just print the root), aggregated across repeated spans of
  the same name (e.g. the many ``probe`` spans of a binary search);
* a **per-extent attribution table** — charged reads/writes, block
  touches, and the derived cache hits (touch that charged nothing) and
  hit ratio per extent name;
* for two traces, a **diff** ranked by charged-I/O delta, which is how a
  regression like the file backend's 8.1x overhead gets localised to the
  extent and span that grew.

Everything operates on the plain record dicts from
:func:`~repro.observability.read_trace` (or a live
:class:`~repro.observability.Tracer`'s ``records``), so it needs no
engine objects and works on traces from other machines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import TraceFormatError
from ..reporting import render_table

__all__ = ["summarize_trace", "diff_traces", "format_summary", "format_diff"]

_IO_FIELDS = ("read_ios", "write_ios", "bytes_read", "bytes_written")


def _span_records(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("type") == "span"]


def _self_costs(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-span *self* cost: its delta minus its direct children's deltas."""
    child_io: Dict[Any, Dict[str, int]] = {}
    child_wall: Dict[Any, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is None:
            continue
        io = span.get("io") or {}
        acc = child_io.setdefault(parent, dict.fromkeys(_IO_FIELDS, 0))
        for field in _IO_FIELDS:
            acc[field] += io.get(field, 0)
        child_wall[parent] = child_wall.get(parent, 0.0) + span.get("wall", 0.0)
    out = []
    for span in spans:
        io = span.get("io") or {}
        children = child_io.get(span.get("id"), {})
        self_io = {
            field: io.get(field, 0) - children.get(field, 0)
            for field in _IO_FIELDS
        }
        out.append({
            "name": span.get("name", "?"),
            "kind": span.get("kind", "?"),
            "io": {field: io.get(field, 0) for field in _IO_FIELDS},
            "wall": span.get("wall", 0.0),
            "self_io": self_io,
            "self_wall": span.get("wall", 0.0) - child_wall.get(span.get("id"), 0.0),
            "top_level": span.get("parent") is None,
        })
    return out


def _aggregate_by_name(costs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    groups: Dict[tuple, Dict[str, Any]] = {}
    for cost in costs:
        key = (cost["name"], cost["kind"])
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "name": cost["name"], "kind": cost["kind"], "count": 0,
                "read_ios": 0, "write_ios": 0,
                "self_read_ios": 0, "self_write_ios": 0,
                "wall": 0.0, "self_wall": 0.0,
            }
        group["count"] += 1
        group["read_ios"] += cost["io"]["read_ios"]
        group["write_ios"] += cost["io"]["write_ios"]
        group["self_read_ios"] += cost["self_io"]["read_ios"]
        group["self_write_ios"] += cost["self_io"]["write_ios"]
        group["wall"] += cost["wall"]
        group["self_wall"] += cost["self_wall"]
    for group in groups.values():
        group["self_total_ios"] = group["self_read_ios"] + group["self_write_ios"]
    return list(groups.values())


def summarize_trace(
    records: Sequence[Dict[str, Any]], top: int = 10
) -> Dict[str, Any]:
    """Digest one trace into a JSON-serialisable summary dict.

    Keys: ``meta`` (header metadata), ``totals`` (run totals from the
    ``trace_end`` record, absent on a torn trace), ``span_count``,
    ``top_by_io`` / ``top_by_wall`` (aggregated by span name, ranked on
    self cost), ``extents`` (per-extent attribution incl. cache hits),
    and ``attributed_io`` (sum of top-level span deltas — equal to the
    totals whenever the whole run was spanned).
    """
    if not records:
        raise TraceFormatError("empty trace: no records")
    spans = _span_records(records)
    costs = _self_costs(spans)
    groups = _aggregate_by_name(costs)

    top_by_io = sorted(
        groups, key=lambda g: (-g["self_total_ios"], -g["self_wall"], g["name"])
    )[:top]
    top_by_wall = sorted(
        groups, key=lambda g: (-g["self_wall"], g["name"])
    )[:top]

    totals = next(
        (r["totals"] for r in records if r.get("type") == "trace_end"), None
    )
    extents: List[Dict[str, Any]] = []
    if totals is not None:
        touches = totals.get("touches", {})
        for name, (reads, writes) in sorted(totals.get("by_extent", {}).items()):
            touched = touches.get(name, 0)
            # A miss is a charged read (demand fetch or RMW fault); every
            # other touch found its block resident.
            hits = max(0, touched - reads)
            extents.append({
                "extent": name,
                "read_ios": reads,
                "write_ios": writes,
                "touches": touched,
                "hits": hits,
                "hit_ratio": (hits / touched) if touched else None,
            })

    attributed = dict.fromkeys(_IO_FIELDS, 0)
    for cost in costs:
        if cost["top_level"]:
            for field in _IO_FIELDS:
                attributed[field] += cost["io"][field]

    return {
        "meta": records[0].get("meta", {}),
        "totals": totals,
        "span_count": len(spans),
        "top_by_io": top_by_io,
        "top_by_wall": top_by_wall,
        "extents": extents,
        "attributed_io": attributed,
    }


def diff_traces(
    a: Sequence[Dict[str, Any]],
    b: Sequence[Dict[str, Any]],
    top: int = 10,
) -> Dict[str, Any]:
    """Compare two traces; rank span groups by charged-I/O growth.

    *a* is the baseline, *b* the candidate. Returns ``spans`` (one row
    per span name present in either trace, with self-I/O and self-wall
    on both sides and their deltas, ranked by ``|delta_ios|`` then
    ``|delta_wall|``), ``extents`` (per-extent read/write I/O deltas),
    and ``totals`` deltas when both traces carry them.
    """
    def by_name(records):
        return {
            (g["name"], g["kind"]): g
            for g in _aggregate_by_name(_self_costs(_span_records(records)))
        }

    left, right = by_name(a), by_name(b)
    rows = []
    for key in sorted(set(left) | set(right)):
        base = left.get(key)
        cand = right.get(key)
        base_ios = base["self_total_ios"] if base else 0
        cand_ios = cand["self_total_ios"] if cand else 0
        base_wall = base["self_wall"] if base else 0.0
        cand_wall = cand["self_wall"] if cand else 0.0
        rows.append({
            "name": key[0],
            "kind": key[1],
            "a_ios": base_ios,
            "b_ios": cand_ios,
            "delta_ios": cand_ios - base_ios,
            "a_wall": base_wall,
            "b_wall": cand_wall,
            "delta_wall": cand_wall - base_wall,
        })
    rows.sort(key=lambda r: (-abs(r["delta_ios"]), -abs(r["delta_wall"]), r["name"]))

    def totals_of(records) -> Optional[Dict[str, Any]]:
        return next(
            (r["totals"] for r in records if r.get("type") == "trace_end"), None
        )

    def extent_map(records) -> Dict[str, List[int]]:
        totals = totals_of(records)
        if totals is None:
            return {}
        return {k: list(v) for k, v in totals.get("by_extent", {}).items()}

    left_ext, right_ext = extent_map(a), extent_map(b)
    extents = []
    for name in sorted(set(left_ext) | set(right_ext)):
        ar, aw = left_ext.get(name, [0, 0])
        br, bw = right_ext.get(name, [0, 0])
        if (br - ar) or (bw - aw):
            extents.append({
                "extent": name,
                "delta_read_ios": br - ar,
                "delta_write_ios": bw - aw,
            })
    extents.sort(
        key=lambda e: -(abs(e["delta_read_ios"]) + abs(e["delta_write_ios"]))
    )

    totals_delta = None
    ta, tb = totals_of(a), totals_of(b)
    if ta is not None and tb is not None and "io" in ta and "io" in tb:
        totals_delta = {
            field: tb["io"].get(field, 0) - ta["io"].get(field, 0)
            for field in _IO_FIELDS
        }
        totals_delta["wall"] = tb.get("wall", 0.0) - ta.get("wall", 0.0)

    return {"spans": rows[:top], "extents": extents[:top], "totals": totals_delta}


def format_summary(summary: Dict[str, Any], fmt: str = "text") -> str:
    """Render a :func:`summarize_trace` result for humans."""
    blocks = []
    totals = summary.get("totals")
    if totals is not None and "io" in totals:
        io = totals["io"]
        line = (
            f"run totals: {io['read_ios']} read I/Os, {io['write_ios']} "
            f"write I/Os, {totals.get('wall', 0.0):.3f}s wall, "
            f"{summary['span_count']} spans"
        )
        physical = totals.get("physical")
        if physical:
            line += (
                f" (physical: {physical['bytes_read']}B read, "
                f"{physical['bytes_written']}B written, "
                f"{physical['fsyncs']} fsyncs)"
            )
        blocks.append(line)
    else:
        blocks.append(
            f"run totals: unavailable (torn trace); {summary['span_count']} spans"
        )

    def span_rows(groups):
        return [
            (
                g["name"], g["kind"], g["count"],
                g["self_read_ios"], g["self_write_ios"],
                f"{g['self_wall'] * 1e3:.1f}",
            )
            for g in groups
        ]

    header = ("span", "kind", "count", "self_reads", "self_writes", "self_ms")
    blocks.append("top spans by charged I/O (self):")
    blocks.append(render_table(header, span_rows(summary["top_by_io"]), fmt))
    blocks.append("top spans by wall-clock (self):")
    blocks.append(render_table(header, span_rows(summary["top_by_wall"]), fmt))

    if summary["extents"]:
        rows = [
            (
                e["extent"], e["read_ios"], e["write_ios"], e["touches"],
                e["hits"],
                "-" if e["hit_ratio"] is None else f"{e['hit_ratio']:.3f}",
            )
            for e in summary["extents"]
        ]
        blocks.append("per-extent attribution:")
        blocks.append(render_table(
            ("extent", "reads", "writes", "touches", "hits", "hit_ratio"),
            rows, fmt,
        ))
    return "\n".join(blocks)


def format_diff(diff: Dict[str, Any], fmt: str = "text") -> str:
    """Render a :func:`diff_traces` result for humans."""
    blocks = []
    totals = diff.get("totals")
    if totals is not None:
        blocks.append(
            f"totals delta: {totals['read_ios']:+d} read I/Os, "
            f"{totals['write_ios']:+d} write I/Os, {totals['wall']:+.3f}s wall"
        )
    rows = [
        (
            r["name"], r["kind"], r["a_ios"], r["b_ios"],
            f"{r['delta_ios']:+d}", f"{r['delta_wall'] * 1e3:+.1f}",
        )
        for r in diff["spans"]
    ]
    blocks.append("span deltas (self I/O, largest first):")
    blocks.append(render_table(
        ("span", "kind", "a_ios", "b_ios", "delta_ios", "delta_ms"), rows, fmt
    ))
    if diff["extents"]:
        ext_rows = [
            (e["extent"], f"{e['delta_read_ios']:+d}", f"{e['delta_write_ios']:+d}")
            for e in diff["extents"]
        ]
        blocks.append("extent deltas:")
        blocks.append(render_table(
            ("extent", "delta_reads", "delta_writes"), ext_rows, fmt
        ))
    return "\n".join(blocks)
