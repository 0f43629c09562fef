"""The perf-check regression gate against the committed kernel baseline."""

import copy
import os

import pytest

from repro.bench.kernels_bench import load_kernel_bench
from repro.bench.perf_check import (
    PerfCheckRow,
    compare_kernel_bench,
    parse_tolerance,
    run_perf_check,
)
from repro.errors import BenchmarkError

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "BENCH_kernels.json"
)


class TestParseTolerance:
    @pytest.mark.parametrize(
        "text,expected",
        [("5x", 5.0), ("5", 5.0), ("2.5x", 2.5), (" 1.5 X ", 1.5), ("1", 1.0)],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_tolerance(text) == expected

    @pytest.mark.parametrize("text", ["", "x5", "fast", "5x5", "-2"])
    def test_rejected_forms(self, text):
        with pytest.raises(BenchmarkError):
            parse_tolerance(text)

    def test_sub_unity_rejected(self):
        with pytest.raises(BenchmarkError, match=">= 1"):
            parse_tolerance("0.5x")


class TestRow:
    def test_ratio_and_regression(self):
        row = PerfCheckRow(
            graph="rmat", engine="numpy",
            baseline_per_edge=1e-9, fresh_per_edge=6e-9, tolerance=5.0,
        )
        assert row.ratio == pytest.approx(6.0)
        assert row.regressed

    def test_within_tolerance(self):
        row = PerfCheckRow(
            graph="rmat", engine="numpy",
            baseline_per_edge=1e-9, fresh_per_edge=4e-9, tolerance=5.0,
        )
        assert not row.regressed


class TestCompare:
    @pytest.fixture(scope="class")
    def baseline(self):
        return load_kernel_bench(BASELINE_PATH)

    def test_self_comparison_passes(self, baseline):
        report = compare_kernel_bench(baseline, baseline, tolerance=1.0)
        assert report.ok
        assert all(r.ratio == pytest.approx(1.0) for r in report.rows)
        assert "PASSED" in report.render()

    def test_slowdown_detected(self, baseline):
        slow = copy.deepcopy(baseline)
        for entry in slow["graphs"]:
            for engine in entry["timings"]:
                entry["timings"][engine]["best_seconds"] *= 10.0
        report = compare_kernel_bench(slow, baseline, tolerance=5.0)
        assert not report.ok
        assert len(report.regressions) == len(report.rows)
        assert "FAILED" in report.render()

    def test_per_edge_normalisation_absorbs_scale(self, baseline):
        # Same per-edge speed on a graph 10x the size must not regress.
        scaled = copy.deepcopy(baseline)
        for entry in scaled["graphs"]:
            entry["nnz"] = entry["nnz"] * 10
            entry["n_x"] = entry["n_x"] * 10
            entry["n_y"] = entry["n_y"] * 10
            for engine in entry["timings"]:
                entry["timings"][engine]["best_seconds"] *= 10.0
        report = compare_kernel_bench(scaled, baseline, tolerance=1.5)
        assert report.ok

    def test_subset_of_graphs_compared(self, baseline):
        subset = copy.deepcopy(baseline)
        subset["graphs"] = subset["graphs"][:1]
        report = compare_kernel_bench(subset, baseline, tolerance=2.0)
        graphs = {r.graph for r in report.rows}
        assert graphs == {baseline["graphs"][0]["name"]}

    def test_zero_overlap_is_an_error(self, baseline):
        renamed = copy.deepcopy(baseline)
        for entry in renamed["graphs"]:
            entry["name"] = entry["name"] + "-other"
        with pytest.raises(BenchmarkError, match="no common graphs"):
            compare_kernel_bench(renamed, baseline, tolerance=2.0)


class TestRunPerfCheck:
    def test_fresh_document_short_circuits_timing(self):
        baseline = load_kernel_bench(BASELINE_PATH)
        report = run_perf_check(BASELINE_PATH, tolerance=1.0, fresh=baseline)
        assert report.ok
