"""Tests of the benchmark itself (outside the tier-1 suite): ``pytest bench/``."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
import types

import pytest

import compare
import layers
import reference
import run
import stats

BENCH = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric(tmp_path, trace, section):
    out = tmp_path / "report.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0.5",
         "--trace", str(trace), "--out", str(out)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if not trace:
        assert time.monotonic() - start < 60
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in report["workloads"].values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {name: e["unit"] for name, e in result["metrics"].items()} == wanted


def test_across_windows_is_the_lower_quartile_of_window_percentiles():
    # Each window: 98 fast answers and two slow ones, so its p99 is `high`.
    highs = (5.0, 2.0, 30.0, 1.0, 7.0, 3.0, 99.0, 4.0, 6.0, 8.0, 9.0)
    windows = [[0.1] * 98 + [high] * 2 for high in highs]
    assert stats.across_windows(windows, 0.99) == 3.0  # 3rd lowest of 11
    assert stats.across_windows(windows, 0.5) == 0.1


def test_reference_speed_scales_by_the_fastest_kernel_time():
    kernel = reference.SpeedReference()
    assert kernel.sample() > 0 and len(kernel.samples) == 1
    slow = 2 * reference.NOMINAL_S
    assert reference.scale([3 * slow, slow, 2 * slow]) == 0.5


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1000))
    assert stats.tail(values) == 989  # the p99: ten values above it
    assert stats.tail(list(range(16))) == 11  # too few: the upper quartile


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "name": "bench.run", "start": 0.0, "end": 10.0, "ios": 100},
        {"id": 2, "parent": 1, "name": "core.peel", "start": 1.0, "end": 5.0, "ios": 60},
        {"id": 3, "parent": 2, "name": "structures.heap_build", "start": 2.0, "end": 3.0,
         "ios": 10},
        # Overlaps span 2 (another thread): the overlap is covered once.
        {"id": 4, "parent": 1, "name": "core.peel", "start": 4.0, "end": 7.0, "ios": 20},
    ]
    own = layers.self_times(spans)
    assert own == {1: (4.0, 20), 2: (3.0, 50), 3: (1.0, 10), 4: (3.0, 20)}
    table = layers.layer_table(spans)
    assert table["core.peel"]["self_s"] == 6.0
    assert table["core.peel"]["calls"] == 2 and table["core.peel"]["ios"] == 70


def test_request_paths_split_server_time_by_stage():
    spans = [
        {"id": 1, "parent": None, "name": "serve.decode", "rid": 7, "start": 0.0, "end": 1.0},
        {"id": 2, "parent": None, "name": "serve.execute", "rid": 7, "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 2, "name": "serve.pin", "rid": 7, "start": 3.0, "end": 4.0},
        {"id": 4, "parent": None, "name": "serve.encode", "rid": 7, "start": 7.0, "end": 8.0},
    ]
    paths = layers.request_paths(spans)
    assert paths["requests"] == 1 and paths["path"] == 8.0
    assert paths["serve.handoff_wait"] == 3.0  # 1 -> 3 and 6 -> 7
    assert paths["serve.execute"] == 2.0 and paths["serve.pin"] == 1.0


def test_span_recorder_patches_and_restores_a_binding(monkeypatch):
    module = types.ModuleType("bench_fake_layer")
    module.work = lambda x: x + 1
    original = module.work
    monkeypatch.setitem(sys.modules, module.__name__, module)
    recorder = layers.SpanRecorder()
    patches = recorder.install([(module.__name__, "work", "core.peel_fake")])
    try:
        with recorder.span("bench.run"):
            assert module.work(1) == 2
    finally:
        patches.restore()
    assert module.work is original
    inner, outer = recorder.spans
    assert inner["name"] == "core.peel_fake" and inner["parent"] == outer["id"]


def test_wrong_answers_are_counted_as_failures():
    pairs = [(0, 1), (0, 2), (1, 2)]
    good = {"op_s": 0.1, "k_max": 3, "edges": [list(p) for p in pairs]}
    outcome = run.Outcome()
    run.check_static(
        [good, dict(good, edges=[[0, 1]]), {"op_s": 0.1, "error": "Traceback\nValueError"},
         dict(good, copy=1)],  # copy 1 is relabelled: other edges expected
        3, [pairs, [(5, 6), (5, 7), (6, 7)]], outcome,
    )
    assert (outcome.attempted, outcome.failed) == (4, 3)

    outcome = run.Outcome()
    envelopes = [
        {"ok": True, "result": {"trussness": 4, "member": True}},
        {"ok": True, "result": {"trussness": 3, "member": True}},  # 3 < k=4
        {"ok": False, "error": {"type": "internal", "message": "boom"}},
    ]
    expected = [("membership", 4, 3), ("membership", 3, 4), ("trussness", 2, 0),
                ("trussness", 2, 0)]  # the last answer is missing
    run.check_serve(envelopes, expected, outcome)
    assert (outcome.attempted, outcome.failed) == (4, 3)

    outcome = run.Outcome()
    stream = {"modes": ["local"] * 3, "errors": [],
              "checkpoints": [{"after": 2, "k_max": 3, "pairs": [[0, 1]]}]}
    run.check_dynamic(stream, {2: (3, [(0, 1)]), 3: (3, [(0, 1)])}, outcome)
    assert (outcome.attempted, outcome.failed) == (3, 1)


@pytest.mark.parametrize("counted, expected", [
    ((0, 0), (1, 1)),  # broke before any operation: the break is the failure
    ((5, 0), (5, 1)),
    ((5, 2), (5, 2)),  # the missing answers are already counted
])
def test_a_broken_run_still_reports_its_counts(monkeypatch, capsys, counted, expected):
    def broken(workload, seed, seconds, trace, smoke, outcome):
        outcome.attempted += counted[0]
        if counted[1]:
            outcome.fail(counted[1], "answers missing")
        raise RuntimeError("host.py static exited with 1")

    monkeypatch.setitem(run.RUNNERS, "static", broken)
    assert run.main(["--workload", "static-dense", "--seed", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": expected[0], "failed": expected[1],
                      "metrics": {}}


def _runs(values):
    return list(enumerate(values))


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("cand, expected", [
    ([v * 1.01 for v in BASE], "unchanged"),
    ([v * 1.40 for v in BASE], "regressed"),
    ([v * 0.70 for v in BASE], "improved"),
    ([50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0, 90.0, 110.0], "unresolved"),
    # Spreads far above the bound: only runs that do not overlap decide.
    ([10.0, 30.0, 20.0, 40.0, 15.0, 35.0, 25.0, 12.0, 38.0, 22.0], "improved"),
    ([200.0, 400.0, 300.0, 500.0, 250.0, 450.0, 350.0, 220.0, 480.0, 320.0], "regressed"),
])
def test_compare_verdicts(cand, expected):
    assert compare.verdict(_runs(BASE), _runs(cand), 0.1, lower=True) == expected


def test_compare_exact_counts_pair_by_seed():
    base = _runs([10, 20, 30])
    assert compare.verdict(base, _runs([10, 20, 30]), 0.2, True, exact=True) == "unchanged"
    assert compare.verdict(base, _runs([10, 21, 30]), 0.2, True, exact=True) == "regressed"
    assert compare._nondeterministic([(0, 10), (0, 11)])


def _report(path, seed, latency, failed=0):
    result = {
        "correct": not failed, "attempted": 10, "failed": failed,
        "metrics": {m["name"]: {"value": latency, "unit": m["unit"]} for m in SPEC["end_to_end"]},
    }
    path.write_text(json.dumps({"seed": seed, "workloads": {"static-dense": result}}))
    return path


def test_compare_exits_one_on_regression_or_more_failures(tmp_path, capsys):
    base = [_report(tmp_path / f"b{s}.json", s, BASE[s]) for s in range(10)]
    same = [_report(tmp_path / f"c{s}.json", s, BASE[s]) for s in range(10)]
    assert compare.main([*map(str, base), "--", *map(str, same)]) == 0
    failing = [_report(tmp_path / f"f{s}.json", s, BASE[s], failed=1) for s in range(10)]
    assert compare.main([*map(str, base), "--", *map(str, failing)]) == 1
    assert "failed share rose" in capsys.readouterr().out
