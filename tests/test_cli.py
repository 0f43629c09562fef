import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.graph == "rmat"
        assert args.algorithm == "ms-bfs-graft"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_graph_and_file_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--graph", "road-like", "--file", "g.mtx"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--graph", "wikipedia-like", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "maximum, certified" in out
        assert "phases" in out

    def test_run_each_algorithm(self, capsys):
        for algo in ("hopcroft-karp", "pothen-fan"):
            assert main(["run", "--graph", "rmat", "--scale", "0.05",
                         "--algorithm", algo]) == 0

    def test_suite_command(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.05"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Mirasol" in capsys.readouterr().out

    def test_experiment_fig8(self, capsys):
        assert main(["experiment", "fig8", "--scale", "0.08"]) == 0
        assert "frontier" in capsys.readouterr().out.lower()

    def test_match_command(self, tmp_path, capsys):
        from repro.graph.generators import planted_matching
        from repro.graph.io import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(planted_matching(15, extra_edges=20, seed=0), path)
        assert main(["run", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_rows=15 n_cols=15" in out
        assert "|M|          : 15 (maximum, certified)" in out


class TestNewCommands:
    def test_run_report(self, capsys):
        assert main(["run", "--graph", "copapers-like", "--scale", "0.05", "--report"]) == 0
        out = capsys.readouterr().out
        assert "step breakdown" in out or "simulated" in out

    def test_generate_npz_and_mtx(self, tmp_path, capsys):
        npz = tmp_path / "g.npz"
        mtx = tmp_path / "g.mtx"
        assert main(["generate", "--graph", "rmat", "--scale", "0.05", "--out", str(npz)]) == 0
        assert main(["generate", "--graph", "rmat", "--scale", "0.05", "--out", str(mtx)]) == 0
        from repro.graph.io import read_matrix_market
        from repro.graph.serialize import load_graph

        assert load_graph(npz) == read_matrix_market(mtx)

    def test_btf_command(self, tmp_path, capsys):
        from repro.graph.generators import planted_matching
        from repro.graph.io import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(planted_matching(12, extra_edges=20, seed=0), path)
        assert main(["btf", str(path)]) == 0
        out = capsys.readouterr().out
        assert "structural rank" in out
        assert "diagonal blocks" in out

    def test_distributed_command(self, capsys):
        assert main(["distributed", "--graph", "wikipedia-like", "--scale", "0.05",
                     "--ranks", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "ranks=   1" in out and "ranks=   4" in out

    def test_report_all(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["experiment", "all", "--scale", "0.05", "--out", str(out)]) == 0
        text = out.read_text()
        assert "fig3" in text and "Table II" in text and "phase-dynamics" in text

    def test_distributed_2d(self, capsys):
        assert main(["distributed", "--graph", "copapers-like", "--scale", "0.05",
                     "--ranks", "1", "4", "--decomposition", "2d"]) == 0
        out = capsys.readouterr().out
        assert "2D decomposition" in out

    def test_match_snap_format(self, tmp_path, capsys):
        path = tmp_path / "g.snap"
        path.write_text("# c\n0 0\n1 1\n")
        assert main(["run", "--file", str(path), "--format", "snap"]) == 0
        assert "|M|          : 2 (maximum, certified)" in capsys.readouterr().out

    def test_match_reads_max_and_npz_by_suffix(self, tmp_path, capsys):
        # ``run --file``, ``batch`` and the cache share one suffix table: a
        # DIMACS max-flow file and a saved .npz graph both load under ``auto``.
        from repro.graph.generators import planted_matching
        from repro.graph.serialize import save_graph

        dimacs = tmp_path / "g.max"
        dimacs.write_text("c flow\np max 6 3\nn 1 s\na 1 4 1\na 2 5 1\na 3 4 1\n")
        assert main(["run", "--file", str(dimacs)]) == 0
        assert "|M|          : 2 (maximum, certified)" in capsys.readouterr().out
        npz = tmp_path / "g.npz"
        save_graph(planted_matching(12, extra_edges=10, seed=1), npz)
        assert main(["run", "--file", str(npz)]) == 0
        assert "|M|          : 12 (maximum, certified)" in capsys.readouterr().out


class TestAnalysisCommands:
    def test_lint_default_tree_clean(self, capsys):
        assert main(["analyze"]) == 0
        assert "analyze clean" in capsys.readouterr().out

    def test_lint_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "core"
        bad.mkdir()
        (bad / "prog.py").write_text(
            "def program(item, ts):\n    yield\n    shared[item] = 1\n"
        )
        assert main(["analyze", str(tmp_path)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_racecheck_default_clean(self, capsys):
        assert main(["racecheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "harmful" in out
        assert "0 harmful" in out

    def test_racecheck_inject_exits_nonzero(self, capsys):
        assert main(["racecheck", "--seeds", "2",
                     "--inject", "non-atomic-visited"]) == 1
        out = capsys.readouterr().out
        assert "visited" in out

    def test_racecheck_named_graph(self, capsys):
        assert main(["racecheck", "--graph", "rmat", "--scale", "0.05",
                     "--seeds", "1"]) == 0
        assert "seed" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_then_resume(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        argv = ["batch", "--run-dir", run_dir, "--graphs", "rmat",
                "--scale", "0.05"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "batch summary" in first
        assert "1/1 jobs succeeded" in first
        assert "(0 resumed from checkpoint" in first

        # Second invocation resumes from the checkpoint: zero recomputation.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        assert "(1 resumed from checkpoint" in second

    def test_batch_with_fault_injection(self, tmp_path, capsys):
        # slow-phase burns 0.15 s per phase, so the 0.2 s deadline expires
        # at phase 3; a timed-out job is not retried.
        assert main(["batch", "--run-dir", str(tmp_path / "run"),
                     "--graphs", "rmat", "--scale", "0.05",
                     "--engine", "numpy", "--deadline", "0.2",
                     "--inject", "slow-phase:0.15"]) == 1
        out = capsys.readouterr().out
        assert "0/1 jobs succeeded" in out and "1 timed out" in out
        assert "job_started x1" in out and "job_timeout x1" in out

    def test_batch_refuses_deleted_fault(self, tmp_path, capsys):
        assert main(["batch", "--run-dir", str(tmp_path / "run"),
                     "--graphs", "rmat", "--scale", "0.05",
                     "--inject", "flaky-engine:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "known: ['slow-phase']" in err
        assert "Traceback" not in err

    def test_batch_bad_jobs_file_is_one_line(self, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text("{not json")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", "--run-dir",
             str(tmp_path / "run"), "--jobs", str(jobs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "not valid JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_batch_engine_exception_exits_nonzero(self, tmp_path, capsys,
                                                   monkeypatch):
        def broken_engine(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.service.executor.run_algorithm", broken_engine)
        assert main(["batch", "--run-dir", str(tmp_path / "run"),
                     "--graphs", "rmat", "--scale", "0.05"]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out and "job_failed x1" in out

    def test_batch_jobs_file(self, tmp_path, capsys):
        import json

        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps([
            {"job_id": "small", "graph": {"suite": "rmat", "scale": 0.05}},
        ]))
        assert main(["batch", "--run-dir", str(tmp_path / "run"),
                     "--jobs", str(jobs_path)]) == 0
        assert "small" in capsys.readouterr().out

    def test_batch_failure_exits_nonzero(self, tmp_path, capsys):
        import json

        jobs_path = tmp_path / "jobs.json"
        jobs_path.write_text(json.dumps([
            {"job_id": "ghost", "graph": {"path": str(tmp_path / "no.mtx")}},
        ]))
        assert main(["batch", "--run-dir", str(tmp_path / "run"),
                     "--jobs", str(jobs_path)]) == 1
        captured = capsys.readouterr()
        assert "failed" in captured.out
        assert "resume" in captured.err

    def test_match_shows_original_snap_ids(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("100 202\n300 201\n305 203\n")
        assert main(["run", "--file", str(path), "--format", "snap"]) == 0
        out = capsys.readouterr().out
        assert "file ids" in out
        assert "100" in out and "202" in out

    def test_snap_ids_survive_the_cache(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        path.write_text("100 300\n100 200\n500 200\n")

        def pair_lines(*extra):
            assert main(["run", "--file", str(path), "--format", "snap", *extra]) == 0
            out = capsys.readouterr().out.splitlines()
            return [line for line in out
                    if line.startswith(("cache", "original ids", "matched pairs"))]

        uncached = pair_lines()
        assert "matched pairs: (100, 300), (500, 200) (file ids)" in uncached
        cache = ["--cache-dir", str(tmp_path / "cache")]
        miss, hit = pair_lines(*cache), pair_lines(*cache)
        assert miss[0].startswith("cache        : miss")
        assert hit[0].startswith("cache        : hit")
        assert miss[1:] == hit[1:] == uncached

    def test_report_all_resumes_from_run_dir(self, tmp_path, capsys):
        run_dir = str(tmp_path / "reports")
        assert main(["experiment", "all", "--scale", "0.05",
                     "--run-dir", run_dir]) == 0
        capsys.readouterr()
        assert main(["experiment", "all", "--scale", "0.05",
                     "--run-dir", run_dir]) == 0
        captured = capsys.readouterr()
        assert "resumed 16/16" in captured.err


class TestTelemetryCommands:
    def test_run_with_metrics_out(self, tmp_path, capsys):
        from repro.telemetry.exporters import lint_prometheus

        out = tmp_path / "run.prom"
        assert main(["run", "--graph", "rmat", "--scale", "0.05",
                     "--metrics-out", str(out)]) == 0
        seen = lint_prometheus(out.read_text())
        assert "repro_phases_total" in seen

    def test_run_report_requests_the_trace(self, capsys):
        assert main(["run", "--graph", "rmat", "--scale", "0.05", "--report"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("simulated Mirasol") for line in lines)
        assert not any("n/a (no work trace)" in line for line in lines)

    def test_run_report_machine_and_threads(self, capsys):
        assert main(["run", "--graph", "rmat", "--scale", "0.05", "--report",
                     "--machine", "edison", "--threads", "12"]) == 0
        out = capsys.readouterr().out
        assert "Edison" in out
        assert "12" in out

    def test_trace_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "rmat.trace.json"
        assert main(["run", "--graph", "rmat", "--scale", "0.05",
                     "--trace-out", str(out), "--min-coverage", "0.9"]) == 0
        doc = json.loads(out.read_text())
        names = {e.get("name") for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert {"run", "setup", "phase"} <= names
        assert "coverage" in capsys.readouterr().out

    def test_trace_min_coverage_failure_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["run", "--graph", "rmat", "--scale", "0.05",
                     "--trace-out", str(out), "--min-coverage", "1.0"]) == 1
        assert "below the required" in capsys.readouterr().err

    def test_trace_sidecar_outputs(self, tmp_path, capsys):
        import json

        from repro.telemetry.exporters import lint_prometheus

        prom = tmp_path / "m.prom"
        jsonl = tmp_path / "t.jsonl"
        assert main(["run", "--graph", "rmat", "--scale", "0.05",
                     "--trace-out", str(tmp_path / "t.json"),
                     "--metrics-out", str(prom),
                     "--jsonl-out", str(jsonl)]) == 0
        assert lint_prometheus(prom.read_text())
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert {r["event"] for r in records} == {"telemetry_span",
                                                "telemetry_metric"}

    @pytest.mark.parametrize("flags", [
        ["--metrics-out", "m.prom"],
        ["--trace-out", "t.json", "--jsonl-out", "t.jsonl"],
        ["--min-coverage", "0.5"],
        ["--engine", "numpy"],
    ])
    def test_driver_flags_refused_for_other_algorithms(self, tmp_path, monkeypatch,
                                                       capsys, flags):
        import repro.cli

        def refuse(*args, **kwargs):
            raise AssertionError("the graph was built before the flags were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(repro.cli, "_acquire_graph", refuse)
        code = main(["run", "--algorithm", "hopcroft-karp", "--scale", "0.05", *flags])
        captured = capsys.readouterr()
        assert code == 2
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert flags[0] in errors[0] and "ms-bfs-graft" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_without_telemetry_flags_opens_no_session(self, monkeypatch, capsys):
        import repro.telemetry

        def refuse():
            raise AssertionError("run opened a Telemetry session unasked")

        monkeypatch.setattr(repro.telemetry, "Telemetry", refuse)
        assert main(["run", "--graph", "rmat", "--scale", "0.05"]) == 0
        assert "trace" not in capsys.readouterr().out

    def test_cold_then_warm_cache_trace(self, tmp_path, capsys):
        # The cold run builds the graph inside a ``build`` span; the warm
        # run loads it from the store, so its trace has no such span, and
        # both certify the same |M|.
        import json

        def traced_run(name):
            trace = tmp_path / f"{name}.trace.json"
            assert main(["run", "--graph", "rmat", "--scale", "0.05",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--trace-out", str(trace)]) == 0
            lines = capsys.readouterr().out.splitlines()
            doc = json.loads(trace.read_text())
            spans = {e.get("name") for e in doc["traceEvents"] if e.get("ph") == "X"}
            return lines, spans

        cold, cold_spans = traced_run("cold")
        warm, warm_spans = traced_run("warm")
        assert any(line.startswith("cache        : miss") for line in cold)
        assert any(line.startswith("cache        : hit") for line in warm)
        assert "build" in cold_spans
        assert "build" not in warm_spans
        # Coverage scores the engine's run span, not the cold build span.
        assert "coverage     : 0.0%" not in "\n".join(cold)
        m_lines = [[line for line in out if line.startswith("|M|")]
                   for out in (cold, warm)]
        assert m_lines[0] == m_lines[1] and len(m_lines[0]) == 1

    def test_run_file_through_cache(self, tmp_path, capsys):
        from repro.graph.generators import planted_matching
        from repro.graph.io import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(planted_matching(15, extra_edges=20, seed=0), path)
        argv = ["run", "--file", str(path), "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert "cache        : miss" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache        : hit" in out
        assert "|M|          : 15 (maximum, certified)" in out

    def test_perf_check_self_consistency(self, capsys):
        assert main(["perf-check", "--tolerance", "1x",
                     "--fresh", "benchmarks/BENCH_kernels.json"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_perf_check_detects_regression(self, tmp_path, capsys):
        import json

        doc = json.loads(open("benchmarks/BENCH_kernels.json").read())
        for entry in doc["graphs"]:
            for engine in entry["timings"]:
                entry["timings"][engine]["best_seconds"] *= 100.0
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doc))
        assert main(["perf-check", "--tolerance", "5x",
                     "--fresh", str(slow)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_batch_metrics_out_and_progress(self, tmp_path, capsys):
        import json

        from repro.telemetry.exporters import lint_prometheus

        run_dir = tmp_path / "batch"
        prom = tmp_path / "batch.prom"
        assert main(["batch", "--run-dir", str(run_dir),
                     "--graphs", "rmat", "--scale", "0.05",
                     "--metrics-out", str(prom)]) == 0
        err = capsys.readouterr().err
        assert "[1/1]" in err and "done" in err
        seen = lint_prometheus(prom.read_text())
        assert "repro_jobs_total" in seen
        events = [json.loads(line)
                  for line in (run_dir / "events.jsonl").read_text().splitlines()]
        assert any(e["event"] == "telemetry_span" for e in events)
        assert any(e["event"] == "telemetry_metric" for e in events)
