"""The perf-check regression gate against the committed kernel baseline."""

import copy
import os

import pytest

from repro.bench.kernels_bench import (
    TOLERANCE,
    PerfCheckRow,
    compare_kernel_bench,
    load_kernel_bench,
    render_perf_check,
)
from repro.errors import BenchmarkError

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "BENCH_kernels.json"
)


class TestRow:
    def test_ratio_and_regression(self):
        row = PerfCheckRow(graph="rmat", engine="numpy",
                           baseline_seconds=1e-3, fresh_seconds=6e-3)
        assert row.ratio == pytest.approx(6.0)
        assert row.regressed

    def test_within_tolerance(self):
        row = PerfCheckRow(graph="rmat", engine="numpy",
                           baseline_seconds=1e-3, fresh_seconds=4e-3)
        assert not row.regressed
        assert TOLERANCE == 5.0


class TestCompare:
    @pytest.fixture(scope="class")
    def baseline(self):
        return load_kernel_bench(BASELINE_PATH)

    def test_self_comparison_passes(self, baseline):
        rows = compare_kernel_bench(baseline, baseline)
        assert len(rows) == 2 * len(baseline["graphs"])
        assert all(r.ratio == pytest.approx(1.0) for r in rows)
        assert "PASSED" in render_perf_check(rows)

    def test_slowdown_detected(self, baseline):
        slow = copy.deepcopy(baseline)
        for entry in slow["graphs"]:
            for engine in entry["timings"]:
                entry["timings"][engine]["best_seconds"] *= 10.0
        rows = compare_kernel_bench(slow, baseline)
        assert all(r.regressed for r in rows)
        assert "FAILED" in render_perf_check(rows)

    def test_zero_overlap_is_an_error(self, baseline):
        renamed = copy.deepcopy(baseline)
        for entry in renamed["graphs"]:
            entry["name"] = entry["name"] + "-other"
        with pytest.raises(BenchmarkError, match="^rmat: the baseline has no row"):
            compare_kernel_bench(baseline, renamed)
