"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.engine.config import CACHE_POLICIES, FSYNC_POLICIES, EngineConfig
from repro.graph.edgelist import write_text_edgelist
from repro.graph.generators import complete_graph, paper_example_graph


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    write_text_edgelist(paper_example_graph(), path)
    return str(path)


class TestCompute:
    def test_compute_from_file(self, example_file, capsys):
        assert main(["compute", example_file]) == 0
        out = capsys.readouterr().out
        assert "k_max: 4" in out
        assert "truss edges: 15" in out

    def test_compute_named_dataset(self, capsys):
        assert main(["compute", "cagrqc-s", "--method", "semi-greedy-core"]) == 0
        assert "k_max:" in capsys.readouterr().out

    def test_compute_show_edges(self, example_file, capsys):
        assert main(["compute", example_file, "--show-edges"]) == 0
        assert "0 1" in capsys.readouterr().out

    def test_compute_every_method(self, example_file, capsys):
        for method in ("semi-binary", "semi-greedy-core", "semi-lazy-update",
                       "bottom-up", "top-down", "in-memory"):
            assert main(["compute", example_file, "--method", method]) == 0
            assert "k_max: 4" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["compute", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_engine_flags_run_the_config_defaults(self, example_file, capsys):
        assert main(["compute", example_file]) == 0
        assert f"engine: {EngineConfig().summary()}\n" in capsys.readouterr().out


class TestCompare:
    def test_compare_agreeing_methods(self, example_file, capsys):
        assert main(["compare", example_file]) == 0
        out = capsys.readouterr().out
        assert "SemiBinary" in out
        assert "SemiLazyUpdate" in out

    def test_compare_markdown(self, example_file, capsys):
        assert main(["compare", example_file, "--format", "markdown",
                     "--methods", "in-memory", "semi-lazy-update"]) == 0
        assert capsys.readouterr().out.startswith("| algorithm")


class TestFormats:
    def test_compute_markdown_format(self, example_file, capsys):
        assert main(["compute", example_file, "--format", "markdown"]) == 0
        assert "| metric" in capsys.readouterr().out

    def test_compute_csv_format(self, example_file, capsys):
        assert main(["compute", example_file, "--format", "csv"]) == 0
        assert "k_max,4" in capsys.readouterr().out


class TestEstimate:
    def test_estimate_output(self, example_file, capsys):
        assert main(["estimate", example_file]) == 0
        out = capsys.readouterr().out
        assert "estimated triangles" in out
        assert "estimated k_max" in out
        assert "estimator read I/Os" in out

    def test_printed_kmax_ci_covers_exact(self, example_file, capsys):
        # Paper example: k_max = 4 — the served CI must cover it.
        assert main(["estimate", example_file]) == 0
        out = capsys.readouterr().out
        match = re.search(r"estimated k_max: .* \(CI \[([\d.]+), ([\d.]+)\]", out)
        low, high = (float(x) for x in match.groups())
        assert low <= 4 <= high

    def test_approx_flags_reach_the_estimator(self, example_file, capsys):
        assert main(["estimate", example_file, "--approx-epsilon", "0.2",
                     "--approx-seed", "3"]) == 0
        assert ("estimator: epsilon=0.2 confidence=0.95 seed=3"
                in capsys.readouterr().out)

    def test_serve_accepts_the_approx_flags(self):
        args = build_parser().parse_args(
            ["serve", "g.txt", "--approx-epsilon", "0.2",
             "--approx-confidence", "0.9", "--approx-seed", "3"])
        assert (args.approx_epsilon, args.approx_confidence,
                args.approx_seed) == (0.2, 0.9, 3)

    @pytest.mark.parametrize(
        "command", ["compute", "compare", "maintain", "ingest"])
    def test_commands_that_never_sample_reject_approx_flags(
        self, command, example_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, example_file, "--approx-seed", "1"])
        assert exc.value.code == 2
        assert "--approx-seed" in capsys.readouterr().err


class TestStats:
    def test_stats(self, example_file, capsys):
        assert main(["stats", example_file]) == 0
        out = capsys.readouterr().out
        assert "kmax" in out


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        target = str(tmp_path / "out.txt")
        assert main(["generate", "diseasome-s", target, "--seed", "2"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", target]) == 0


class TestMaintain:
    def test_update_stream(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("# stream\n+0 4\n-0 4\n")
        assert main(["maintain", example_file, "--updates", str(updates)]) == 0
        out = capsys.readouterr().out
        assert "initial k_max: 4" in out
        assert "k_max 4 -> 5" in out
        assert "final k_max: 4" in out

    def test_malformed_update(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+x y\n")
        assert main(["maintain", example_file, "--updates", str(updates)]) == 2

    def test_bad_update_semantics(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("-0 7\n")  # absent edge
        assert main(["maintain", example_file, "--updates", str(updates)]) == 1

    def test_unsigned_line_inserts(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("0 4\n")
        assert main(["maintain", example_file, "--updates", str(updates)]) == 0
        out = capsys.readouterr().out
        assert "insert (0,4): k_max 4 -> 5" in out
        assert "final k_max: 5" in out

    def test_batch_mode(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+0 4\n")
        assert main(
            ["maintain", example_file, "--updates", str(updates), "--batch"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch of 1 ops" in out
        assert "final k_max: 5" in out


class TestUpdateGrammar:
    """``maintain`` and ``ingest`` read one grammar: ``[+|-]u v``."""

    @pytest.mark.parametrize("command", ["maintain", "ingest"])
    @pytest.mark.parametrize("line", ["+x y", "x0 1", "+0 1 2", "+0"])
    def test_malformed_line_exits_2(
        self, example_file, tmp_path, capsys, command, line
    ):
        updates = tmp_path / "updates.txt"
        updates.write_text(f"# stream\n\n{line}\n")
        assert main([command, example_file, "--updates", str(updates)]) == 2
        assert "line 3: malformed update" in capsys.readouterr().err

    def test_window_rejects_deletes(self, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("0 1\n-0 1\n")
        assert main(["ingest", "--updates", str(updates), "--window", "4"]) == 2
        assert "line 2: explicit deletes" in capsys.readouterr().err

    def test_ingest_reads_signed_and_unsigned_lines(
        self, example_file, tmp_path, capsys
    ):
        updates = tmp_path / "updates.txt"
        updates.write_text("0 4\n-0 4\n+0 4\n")
        assert main(["ingest", example_file, "--updates", str(updates)]) == 0
        assert "final k_max: 5" in capsys.readouterr().out


class TestIngestDurable:
    @pytest.mark.parametrize(
        "bad", [["--batch-size", "0"], ["--max-delay", "0"]],
        ids=["batch-size-0", "max-delay-0"],
    )
    def test_rejected_option_leaves_directory_untouched(
        self, example_file, tmp_path, capsys, bad
    ):
        """The pipeline checks its options before the durable sink writes
        the directory's first checkpoint, so the corrected re-run works."""
        updates = tmp_path / "updates.txt"
        updates.write_text("0 4\n")
        home = tmp_path / "home"
        argv = ["ingest", example_file, "--updates", str(updates),
                "--durable", str(home)]
        assert main(argv + bad) == 1
        assert "error:" in capsys.readouterr().err
        assert not (home / "state.ckpt").exists()
        assert not (home / "wal.log").exists()
        assert main(argv) == 0
        assert "final k_max: 5" in capsys.readouterr().out

    def test_rejected_line_is_not_logged(self, example_file, tmp_path, capsys):
        """A line the state rejects exits 1, and the directory recovers to
        what was applied before it."""
        from repro.persistence import recover

        updates = tmp_path / "updates.txt"
        updates.write_text("0 4\n0 1\n")  # (0, 1) is already an edge
        home = tmp_path / "home"
        argv = ["ingest", example_file, "--updates", str(updates),
                "--durable", str(home), "--batch-size", "1"]
        assert main(argv) == 1
        assert "existing edge (0, 1)" in capsys.readouterr().err
        recovered = recover(home)
        assert recovered.state.k_max == 5
        assert recovered.last_recovery.replayed_ops == 1
        recovered.close()


class TestGraphFiles:
    @pytest.mark.parametrize("suffix", [".txt", ".rgr", ".metis", ".graph", ".cgr"])
    def test_compute_reads_what_convert_writes(self, tmp_path, capsys, suffix):
        source = tmp_path / "k6-source.txt"
        write_text_edgelist(complete_graph(6), source)
        target = tmp_path / f"k6{suffix}"
        assert main(["convert", str(source), str(target)]) == 0
        assert main(["compute", str(target)]) == 0
        assert "k_max: 6" in capsys.readouterr().out


class TestCommunity:
    def test_community_query(self, example_file, capsys):
        assert main(["community", example_file, "0", "3"]) == 0
        out = capsys.readouterr().out
        assert "community trussness k: 4" in out

    def test_triangle_connectivity_flag(self, example_file, capsys):
        assert main(
            ["community", example_file, "0", "--connectivity", "triangle"]
        ) == 0

    def test_no_community(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["community", str(path), "0", "3"]) == 3
        assert "no common community" in capsys.readouterr().out


class TestDecompose:
    def test_decompose_output(self, example_file, capsys):
        assert main(["decompose", example_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 16  # header + 15 edges
        assert all(line.split()[-1] == "4" for line in out[1:])


class TestErrorPaths:
    """Every bad input exits non-zero with one stderr line, no traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_input_file(self, capsys):
        assert main(["compute", "/no/such/file"]) == 1
        self.assert_one_line_error(capsys)

    def test_binary_garbage_input(self, tmp_path, capsys):
        path = tmp_path / "garbage.bin"
        path.write_bytes(bytes(range(256)) * 4)
        assert main(["compute", str(path)]) == 1
        self.assert_one_line_error(capsys)

    def test_text_garbage_input(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("zero one\ntwo three four\n")
        assert main(["compute", str(path)]) == 1
        self.assert_one_line_error(capsys)

    def test_maintain_missing_updates_file(self, example_file, capsys):
        assert main(
            ["maintain", example_file, "--updates", "/no/such/stream"]
        ) == 1
        self.assert_one_line_error(capsys)

    def test_broken_pipe_exits_quietly(self, example_file, monkeypatch, capsys):
        # `repro ... | head` closing stdout early is not our error: no
        # stderr line, no traceback, the conventional 128+SIGPIPE status.
        import repro.cli as cli

        def explode(args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_cmd_stats", explode)
        assert main(["stats", example_file]) == 141
        assert capsys.readouterr().err == ""

    def test_unknown_backend_rejected_by_parser(self, example_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", example_file, "--backend", "holographic"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_bad_fsync_policy_rejected_by_parser(self, example_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", example_file, "--fsync", "sometimes"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_engine_enum_choices_are_the_configs(self):
        """Every subcommand's --cache-policy and --fsync accept exactly
        what the config accepts."""
        expected = {
            "--cache-policy": tuple(CACHE_POLICIES),
            "--fsync": tuple(FSYNC_POLICIES),
        }
        seen = {flag: set() for flag in expected}

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for subparser in action.choices.values():
                        walk(subparser)
                for flag in set(action.option_strings) & set(expected):
                    seen[flag].add(tuple(action.choices))

        walk(build_parser())
        assert seen == {flag: {choices} for flag, choices in expected.items()}


class TestTrace:
    @pytest.fixture
    def trace_file(self, example_file, tmp_path, capsys):
        path = tmp_path / "run.trace"
        assert main(["compute", example_file, "--trace", str(path),
                     "--block-size", "64", "--cache-blocks", "32"]) == 0
        assert "trace written" in capsys.readouterr().err
        return str(path)

    def test_summary_text(self, trace_file, capsys):
        assert main(["trace", "summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "run totals:" in out
        assert "per-extent attribution:" in out
        assert "support_scan" in out

    def test_summary_json_attribution_is_exact(self, trace_file, capsys):
        assert main(["trace", "summary", trace_file, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["attributed_io"]["read_ios"] == \
            summary["totals"]["io"]["read_ios"]
        assert summary["attributed_io"]["write_ios"] == \
            summary["totals"]["io"]["write_ios"]

    def test_maintain_records_a_trace(self, example_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+0 4\n-0 4\n")
        path = tmp_path / "maintain.trace"
        assert main(["maintain", example_file, "--updates", str(updates),
                     "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "maintain.insert" in out
        assert "maintain.delete" in out

    def test_diff_localises_an_injected_regression(
        self, trace_file, tmp_path, capsys
    ):
        """ISSUE acceptance: a synthetic +5000-read regression injected
        into one kernel of a fixture pair is the diff's top span."""
        from repro.observability import TraceWriter, read_trace

        records = [json.loads(json.dumps(r)) for r in read_trace(trace_file)]
        victim = next(r for r in records
                      if r.get("type") == "span" and r["name"] == "support_scan")
        # a real kernel regression grows the kernel's own delta AND every
        # ancestor's inclusive delta (ancestor *self* cost is unchanged)
        spans_by_id = {r["id"]: r for r in records if r.get("type") == "span"}
        node = victim
        while node is not None:
            node["io"]["read_ios"] += 5000
            node["by_extent"].setdefault("G.adj", [0, 0])[0] += 5000
            node = spans_by_id.get(node["parent"])
        tail = next(r for r in records if r.get("type") == "trace_end")
        tail["totals"]["io"]["read_ios"] += 5000
        tail["totals"]["by_extent"]["G.adj"][0] += 5000
        regressed = str(tmp_path / "regressed.trace")
        with TraceWriter(regressed) as writer:
            for record in records:
                writer.write(record)
        assert main(["trace", "diff", trace_file, regressed,
                     "--format", "json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        worst = diff["spans"][0]
        assert worst["name"] == "support_scan"
        assert worst["delta_ios"] == 5000
        assert diff["extents"][0]["extent"] == "G.adj"
        assert diff["extents"][0]["delta_read_ios"] == 5000
        assert diff["totals"]["read_ios"] == 5000
        # and the human rendering names the culprit on top
        assert main(["trace", "diff", trace_file, regressed]) == 0
        text = capsys.readouterr().out
        assert "+5000" in text
        first_row = text.split("span deltas")[1].splitlines()[3]
        assert "support_scan" in first_row

    def test_diff_of_identical_traces_is_quiet(self, trace_file, capsys):
        assert main(["trace", "diff", trace_file, trace_file,
                     "--format", "json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert all(row["delta_ios"] == 0 for row in diff["spans"])
        assert diff["extents"] == []

    def test_summary_of_corrupt_trace_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"not a trace\n")
        assert main(["trace", "summary", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestHierarchy:
    def test_level_profile(self, example_file, capsys):
        assert main(["hierarchy", example_file]) == 0
        out = capsys.readouterr().out
        assert "k_max=4" in out
        assert "class_size" in out

    def test_markdown_format(self, example_file, capsys):
        assert main(["hierarchy", example_file, "--format", "markdown"]) == 0
        assert "| k" in capsys.readouterr().out


class TestServe:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert main(["serve"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "serve", "cagrqc-s", "--durable", str(tmp_path)
        ]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_durable_without_checkpoint_is_typed_error(self, capsys, tmp_path):
        assert main(["serve", "--durable", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["serve", "GRAPH", "--port", "70000"],
            ["serve", "GRAPH", "--port", "-1"],
            ["serve", "GRAPH", "--host="],
            ["serve", "GRAPH", "--promote-interval", "0"],
            ["ingest", "--updates", "UPDATES", "--batch-size", "0"],
            ["ingest", "--updates", "UPDATES", "--max-delay", "0"],
            ["ingest", "--updates", "UPDATES", "--max-delay", "-1"],
        ],
        ids=[
            "port-70000", "port-negative", "empty-host", "promote-interval-0",
            "batch-size-0", "max-delay-0", "max-delay-negative",
        ],
    )
    def test_out_of_range_options_are_one_line_errors(
        self, flags, example_file, tmp_path, capsys, monkeypatch
    ):
        """The pipeline and the server check their own options; a bad one
        exits 1 with one ``error:`` line, before any socket binds."""
        from repro.serve.server import TrussServer

        async def never_bind(_server):
            raise AssertionError("a rejected option must not reach bind")

        monkeypatch.setattr(TrussServer, "start", never_bind)
        updates = tmp_path / "updates.txt"
        updates.write_text("0 4\n")
        substitute = {"GRAPH": example_file, "UPDATES": str(updates)}
        argv = [substitute.get(flag, flag) for flag in flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_serve_announces_and_drains(self, example_file, capsys):
        # In-process end-to-end: a helper thread connects to the announced
        # port, runs one query, and asks the server to drain.
        import re
        import threading

        from repro.serve import TrussClient

        answers = []

        def probe(address):
            host, port = address
            with TrussClient(host, port) as client:
                answers.append(client.stats().result)
                client.shutdown()

        # _cmd_serve imports run_server lazily, so patching the server
        # module's attribute intercepts the CLI's call.
        from repro.serve import server as server_module

        real_run_server = server_module.run_server

        def wrapped(engine, on_started=None, **options):
            def announce_and_probe(address):
                if on_started is not None:
                    on_started(address)
                threading.Thread(
                    target=probe, args=(address,), daemon=True
                ).start()

            return real_run_server(
                engine, on_started=announce_and_probe, **options
            )

        server_module.run_server = wrapped
        try:
            assert main(["serve", example_file, "--port", "0"]) == 0
        finally:
            server_module.run_server = real_run_server
        out = capsys.readouterr().out
        assert re.search(r"listening on 127\.0\.0\.1:\d+", out)
        assert "drained; served 1 requests" in out
        assert answers and answers[0]["m"] == 15
