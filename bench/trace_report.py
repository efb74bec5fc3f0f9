"""Per-layer breakdown of traced benchmark runs.

    python3 bench/trace_report.py [bench/out/trace-*.jsonl ...]

For each trace file (default: every ``bench/out/trace-*.jsonl``) prints,
per span, the self seconds, the share of the traced program time, the call
count and the charged block I/Os, plus the tracing overhead. The program
time is the root span (one set-up plus the measured work) for the static
and dynamic workloads, and the summed server-side request paths for
``serve-point``. Exits 1 when the named layers cover less than
:data:`MIN_COVERAGE` of a traced static run.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Dict, List

import layers

OUT = pathlib.Path(__file__).resolve().parent / "out"
MIN_COVERAGE = 0.90


def read_trace(path: pathlib.Path):
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with open(path) as trace:
        for line in trace:
            record = json.loads(line)
            if record.pop("type") == "meta":
                meta = record
            else:
                spans.append(record)
    return meta, spans


def report(path: pathlib.Path) -> bool:
    """Print one trace's table; False when a static run is under-covered."""
    meta, spans = read_trace(path)
    kind = meta.get("kind")
    table = layers.layer_table(spans)
    if kind == "serve":
        paths = layers.request_paths(spans)
        program_s = paths["path"]
        rows = {
            stage: {"self_s": paths.get(stage, 0.0), "calls": table.get(stage, {}).get("calls", 0),
                    "ios": 0}
            for stage in layers.SERVE_STAGES
        }
        covered = sum(row["self_s"] for row in rows.values())
        overhead = None
    else:
        root = table.pop("bench.run")
        program_s = root["self_s"] + sum(row["self_s"] for row in table.values())
        rows = table
        covered = program_s - root["self_s"]
        overhead = meta["traced_s"] / meta["untraced_s"]
    title = meta.get("workload", path.stem)
    if meta.get("methods"):
        title += f" ({', '.join(meta['methods'])})"
    print(f"== {title}: program {program_s:.4f} s")
    print(f"  {'span':28} {'self s':>10} {'share':>7} {'calls':>8} {'charged I/O':>12}")
    for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / program_s if program_s else 0.0
        print(f"  {name:28} {row['self_s']:10.4f} {share:7.1%} {row['calls']:8d} "
              f"{int(row['ios']):12d}")
    coverage = covered / program_s if program_s else 0.0
    print(f"  named layers cover {coverage:.1%} of the program time")
    if overhead is not None:
        print(f"  tracing overhead {overhead:.3f}x (traced / untraced measured work)")
    if kind == "static" and coverage < MIN_COVERAGE:
        print(f"  FAIL: under {MIN_COVERAGE:.0%} coverage")
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [pathlib.Path(arg) for arg in argv] or sorted(OUT.glob("trace-*.jsonl"))
    if not paths:
        print(f"no trace files under {OUT}; run bench/run.py --trace 1 first", file=sys.stderr)
        return 1
    ok = True
    for path in paths:
        ok = report(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
