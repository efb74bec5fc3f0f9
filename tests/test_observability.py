"""Unit tests for the observability subsystem.

Covers the four layers independently of the engine integration guards in
``tests/test_engine.py``:

* :class:`~repro.observability.MetricsRegistry` instruments and the
  registry stack,
* :class:`~repro.observability.Tracer` span trees with a deterministic
  clock and synthetic counter providers,
* the length-framed trace file format (torn tails tolerated, structural
  corruption raises :class:`~repro.errors.TraceFormatError`),
* :func:`~repro.observability.summarize_trace` /
  :func:`~repro.observability.diff_traces` self-cost accounting.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.observability import (
    MetricsRegistry,
    Tracer,
    TraceWriter,
    diff_traces,
    format_diff,
    format_summary,
    read_trace,
    summarize_trace,
)
from repro.observability.metrics import (
    Histogram,
    global_metrics,
    pop_metrics,
    push_metrics,
)
from repro.observability.tracer import active_tracer, trace_span
from repro.reporting import render_metrics


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()
        counter.inc(4)
        assert registry.counter("ops").value == 5
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)

    def test_gauge_set_replaces(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(1.5)
        assert registry.gauge("depth").value == 1.5

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("io", extent="adj").inc(2)
        registry.counter("io", extent="sup").inc(7)
        snapshot = registry.snapshot()["counters"]
        assert snapshot == {"io{extent=adj}": 2, "io{extent=sup}": 7}

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("x", b=1, a=2).inc()
        assert registry.counter("x", a=2, b=1).value == 1

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 2.0, 100.0):
            histogram.observe(value)
        # le-1.0 catches 0.5 and the exact bound 1.0; +inf catches 100.
        assert histogram.bucket_counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.max == 100.0
        assert histogram.mean == pytest.approx(103.5 / 4)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g", extent="adj").set(0.5)
        registry.histogram("h", buckets=(1.0,)).observe(2.0)
        snapshot = registry.snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded["histograms"]["h"]["buckets"] == {"1.0": 0, "+inf": 1}

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_push_pop_scopes_collection(self):
        base = global_metrics()
        scoped = push_metrics()
        try:
            assert global_metrics() is scoped
            global_metrics().counter("scoped").inc()
        finally:
            assert pop_metrics() is scoped
        assert global_metrics() is base
        assert "scoped" in scoped.snapshot()["counters"]

    def test_base_registry_cannot_be_popped(self):
        with pytest.raises(RuntimeError, match="default"):
            pop_metrics()

    def test_render_metrics_tables(self):
        registry = MetricsRegistry()
        registry.counter("wal.appends").inc(3)
        registry.histogram("wal.fsync_seconds").observe(0.01)
        text = render_metrics(registry.snapshot())
        assert "wal.appends" in text
        assert "wal.fsync_seconds" in text
        assert render_metrics(MetricsRegistry().snapshot()) == "no metrics recorded"


# --------------------------------------------------------------------- #
# tracer (deterministic clock + synthetic counter providers)
# --------------------------------------------------------------------- #


class FakeStats:
    """Minimal IOStats look-alike: snapshot/since over four counters."""

    def __init__(self, read_ios=0, write_ios=0, bytes_read=0, bytes_written=0):
        self.read_ios = read_ios
        self.write_ios = write_ios
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.physical = None

    def snapshot(self):
        return FakeStats(
            self.read_ios, self.write_ios, self.bytes_read, self.bytes_written
        )

    def since(self, before):
        return FakeStats(
            self.read_ios - before.read_ios,
            self.write_ios - before.write_ios,
            self.bytes_read - before.bytes_read,
            self.bytes_written - before.bytes_written,
        )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def traced():
    """A started tracer over fake counters; yields (tracer, stats, extents)."""
    stats = FakeStats()
    extents = {}
    tracer = Tracer(clock=FakeClock())
    tracer.bind_providers(
        stats=lambda: stats,
        extents=lambda: dict(extents),
        touches=dict,
    )
    tracer.start(engine="test")
    yield tracer, stats, extents
    tracer.finish()


class TestTracer:
    def test_header_then_spans_then_end(self, traced):
        tracer, _stats, _extents = traced
        with tracer.span("phase", kind="phase"):
            with trace_span("kernel"):
                pass
        tracer.finish()
        types = [r["type"] for r in tracer.records]
        assert types == ["trace_header", "span", "span", "trace_end"]
        assert tracer.records[0]["version"] == 1
        assert tracer.records[0]["meta"] == {"engine": "test"}
        # children close (and are recorded) before their parents
        kernel, phase = tracer.records[1], tracer.records[2]
        assert kernel["name"] == "kernel"
        assert kernel["parent"] == phase["id"]
        assert phase["parent"] is None

    def test_span_deltas_track_the_counters(self, traced):
        tracer, stats, extents = traced
        with tracer.span("work"):
            stats.read_ios += 3
            stats.write_ios += 1
            extents["adj"] = (3, 1)
        record = tracer.records[-1]
        assert record["io"]["read_ios"] == 3
        assert record["io"]["write_ios"] == 1
        assert record["by_extent"] == {"adj": [3, 1]}

    def test_untouched_extents_omitted_from_span(self, traced):
        tracer, _stats, extents = traced
        extents["cold"] = (10, 10)
        with tracer.span("idle"):
            pass
        assert tracer.records[-1]["by_extent"] == {}

    def test_attrs_recorded(self, traced):
        tracer, _stats, _extents = traced
        with tracer.span("probe", tag="lo", min_support=4):
            pass
        assert tracer.records[-1]["attrs"] == {"tag": "lo", "min_support": 4}

    def test_finish_closes_leaked_spans_and_totals(self, traced):
        tracer, stats, extents = traced
        tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        stats.read_ios = 5
        extents["adj"] = (5, 0)
        tracer.finish()
        names = [r["name"] for r in tracer.records if r["type"] == "span"]
        assert names == ["inner", "outer"]
        totals = tracer.records[-1]["totals"]
        assert totals["io"]["read_ios"] == 5
        assert totals["by_extent"] == {"adj": [5, 0]}

    def test_exit_unwinds_a_leaked_inner_span(self, traced):
        tracer, _stats, _extents = traced
        with tracer.span("outer"):
            tracer.span("leaked").__enter__()
        names = [r["name"] for r in tracer.records if r["type"] == "span"]
        assert names == ["leaked", "outer"]
        with trace_span("after") as span:
            assert span.parent_id is None

    def test_ambient_stack_and_noop_trace_span(self, traced):
        tracer, _stats, _extents = traced
        assert active_tracer() is tracer
        tracer.finish()
        assert active_tracer() is None
        # off switch: no tracer active -> one shared null context, which
        # binds None and records nothing
        assert trace_span("orphan") is trace_span("other", kind="phase", n=3)
        with trace_span("orphan") as span:
            assert span is None
        assert all(r.get("name") != "orphan" for r in tracer.records)

    def test_event_attaches_to_current_span(self, traced):
        tracer, _stats, _extents = traced
        with tracer.span("phase") as span:
            tracer.event("device", {"backend": "simulated"})
        event = next(r for r in tracer.records if r["type"] == "event")
        assert event["span"] == span.span_id
        assert event["payload"] == {"backend": "simulated"}

    def test_start_and_finish_are_idempotent(self, traced):
        tracer, _stats, _extents = traced
        tracer.start()
        tracer.finish()
        tracer.finish()
        assert [r["type"] for r in tracer.records].count("trace_header") == 1
        assert [r["type"] for r in tracer.records].count("trace_end") == 1


# --------------------------------------------------------------------- #
# trace file format
# --------------------------------------------------------------------- #


def write_frames(path, records):
    with TraceWriter(str(path)) as writer:
        for record in records:
            writer.write(record)


HEADER = {"type": "trace_header", "version": 1, "meta": {}}


class TestTraceFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        records = [HEADER, {"type": "span", "name": "α", "io": {"read_ios": 1}}]
        write_frames(path, records)
        assert read_trace(str(path)) == records

    def test_torn_tail_variants_drop_only_the_tail(self, tmp_path):
        path = tmp_path / "t.trace"
        write_frames(path, [HEADER, {"type": "span", "name": "a"}])
        blob = path.read_bytes()
        # every strict prefix must parse to at most the complete frames,
        # never raise: a crash can tear the file at any byte
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            records = read_trace(str(path))
            assert records in ([], [HEADER], [HEADER, {"type": "span", "name": "a"}])

    def test_bad_length_prefix_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"xyz\n{}\n")
        with pytest.raises(TraceFormatError, match="length prefix"):
            read_trace(str(path))

    def test_implausible_length_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"999999999999\n{}\n")
        with pytest.raises(TraceFormatError, match="implausible"):
            read_trace(str(path))

    def test_non_json_payload_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"3\nabc\n4\n{}{}\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            read_trace(str(path))

    def test_non_object_payload_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"2\n42\n")
        with pytest.raises(TraceFormatError, match="not a JSON object"):
            read_trace(str(path))

    def test_missing_frame_terminator_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"2\n{}X2\n{}\n")
        with pytest.raises(TraceFormatError, match="not newline-terminated"):
            read_trace(str(path))

    def test_wrong_first_record_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        write_frames(path, [{"type": "span", "name": "a"}])
        with pytest.raises(TraceFormatError, match="expected 'trace_header'"):
            read_trace(str(path))

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "t.trace"
        write_frames(path, [{"type": "trace_header", "version": 99, "meta": {}}])
        with pytest.raises(TraceFormatError, match="version"):
            read_trace(str(path))

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            read_trace(str(tmp_path / "absent.trace"))


# --------------------------------------------------------------------- #
# summaries and diffs
# --------------------------------------------------------------------- #


def synthetic_trace(probe_reads, scan_reads=40, writes=10):
    """A small span tree with known self costs.

    phase(total) > scan(scan_reads) + probe(probe_reads); phase itself
    charges nothing, so its self cost must come out zero.
    """
    total = probe_reads + scan_reads
    return [
        {"type": "trace_header", "version": 1, "meta": {"graph": "toy"}},
        {
            "type": "span", "id": 2, "parent": 1, "name": "support_scan",
            "kind": "kernel", "wall": 1.0,
            "io": {"read_ios": scan_reads, "write_ios": writes,
                   "bytes_read": 0, "bytes_written": 0},
            "by_extent": {"adj": [scan_reads, 0]}, "touches": {},
        },
        {
            "type": "span", "id": 3, "parent": 1, "name": "probe",
            "kind": "kernel", "wall": 2.0,
            "io": {"read_ios": probe_reads, "write_ios": 0,
                   "bytes_read": 0, "bytes_written": 0},
            "by_extent": {"edges": [probe_reads, 0]}, "touches": {},
        },
        {
            "type": "span", "id": 1, "parent": None, "name": "semi-binary",
            "kind": "phase", "wall": 3.5,
            "io": {"read_ios": total, "write_ios": writes,
                   "bytes_read": 0, "bytes_written": 0},
            "by_extent": {}, "touches": {},
        },
        {
            "type": "trace_end",
            "totals": {
                "wall": 3.5,
                "io": {"read_ios": total, "write_ios": writes,
                       "bytes_read": 0, "bytes_written": 0},
                "by_extent": {"adj": [scan_reads, 0], "edges": [probe_reads, 0]},
                "touches": {"adj": scan_reads * 4},
            },
        },
    ]


class TestSummary:
    def test_self_cost_subtracts_children(self):
        summary = summarize_trace(synthetic_trace(probe_reads=60))
        by_name = {g["name"]: g for g in summary["top_by_io"]}
        # the phase's inclusive cost is entirely its children's
        assert by_name["semi-binary"]["self_total_ios"] == 0
        assert by_name["probe"]["self_total_ios"] == 60
        assert by_name["support_scan"]["self_total_ios"] == 50
        assert summary["top_by_io"][0]["name"] == "probe"
        assert summary["top_by_wall"][0]["name"] == "probe"

    def test_attributed_io_equals_totals(self):
        summary = summarize_trace(synthetic_trace(probe_reads=60))
        assert summary["attributed_io"]["read_ios"] == \
            summary["totals"]["io"]["read_ios"]
        assert summary["attributed_io"]["write_ios"] == \
            summary["totals"]["io"]["write_ios"]

    def test_extent_hit_accounting(self):
        summary = summarize_trace(synthetic_trace(probe_reads=60))
        adj = next(e for e in summary["extents"] if e["extent"] == "adj")
        # 160 touches, 40 charged reads -> 120 hits
        assert (adj["touches"], adj["hits"]) == (160, 120)
        assert adj["hit_ratio"] == pytest.approx(0.75)

    def test_empty_trace_raises(self):
        with pytest.raises(TraceFormatError, match="empty"):
            summarize_trace([])

    def test_torn_trace_summarises_without_totals(self):
        records = synthetic_trace(probe_reads=60)[:-1]  # no trace_end
        summary = summarize_trace(records)
        assert summary["totals"] is None
        assert "torn" in format_summary(summary)

    def test_format_summary_text(self):
        text = format_summary(summarize_trace(synthetic_trace(probe_reads=60)))
        assert "run totals: 100 read I/Os" in text
        assert "per-extent attribution:" in text
        assert "probe" in text


class TestDiff:
    def test_diff_localises_injected_regression(self):
        # candidate regresses only the probe kernel: +140 charged reads
        diff = diff_traces(
            synthetic_trace(probe_reads=60), synthetic_trace(probe_reads=200)
        )
        worst = diff["spans"][0]
        assert (worst["name"], worst["delta_ios"]) == ("probe", 140)
        assert diff["extents"][0] == {
            "extent": "edges", "delta_read_ios": 140, "delta_write_ios": 0,
        }
        assert diff["totals"]["read_ios"] == 140
        assert diff["totals"]["write_ios"] == 0

    def test_identical_traces_diff_to_zero(self):
        diff = diff_traces(
            synthetic_trace(probe_reads=60), synthetic_trace(probe_reads=60)
        )
        assert all(row["delta_ios"] == 0 for row in diff["spans"])
        assert diff["extents"] == []

    def test_span_only_in_one_trace(self):
        base = synthetic_trace(probe_reads=60)
        cand = [r for r in base if r.get("name") != "probe"]
        diff = diff_traces(base, cand)
        probe = next(r for r in diff["spans"] if r["name"] == "probe")
        assert probe["delta_ios"] == -60

    def test_format_diff_text(self):
        text = format_diff(diff_traces(
            synthetic_trace(probe_reads=60), synthetic_trace(probe_reads=200)
        ))
        assert "totals delta: +140 read I/Os" in text
        assert "+140" in text
