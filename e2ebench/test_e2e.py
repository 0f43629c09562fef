"""Smoke test of the end-to-end benchmark at a tiny scale (about 30 s).

    python -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import harness
import numpy as np
import offline
import online
import pytest

TINY = ("--scale", "8", "--seconds", "0.5")


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), *TINY, *args],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        ("0", 0): _run("--trace", "0", "--seed", "0"),
        ("1", 0): _run("--trace", "1", "--seed", "0"),
        ("0", 1): _run("--trace", "0", "--seed", "1", "--workload", "ks-rmat", "online-churn"),
    }


def _by_workload(summary: dict) -> dict:
    out: dict = {}
    for key, metric in summary["metrics"].items():
        workload, name = key.split("/", 1)
        out.setdefault(workload, {})[name] = metric["unit"]
    return out


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(spec, runs, trace, group):
    summary = runs[(trace, 0)]
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 2 * len(harness.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    want = {m["name"]: m["unit"] for m in spec[group]}
    by_workload = _by_workload(summary)
    assert set(by_workload) == set(harness.WORKLOADS)
    for workload, units in by_workload.items():
        assert units == want, workload


@pytest.mark.parametrize("program_verifies", [True, False])
def test_corrupted_matching_is_counted_as_failed(tmp_path, monkeypatch, program_verifies):
    bench = offline.OfflineWorkload("ks-rmat", seed=0, scale=8, workdir=tmp_path)
    bench.setup()
    solve = bench.solve

    def corrupted():
        graph, result = solve()
        mate_x, mate_y = result.matching.mate_x, result.matching.mate_y
        x = int(np.flatnonzero(mate_x >= 0)[0])
        mate_y[mate_x[x]] = -1
        mate_x[x] = -1
        return graph, result

    monkeypatch.setattr(bench, "solve", corrupted)
    if not program_verifies:
        # Only the benchmark's own oracle is left to notice.
        monkeypatch.setattr(offline, "verify_maximum", lambda graph, matching: None)
    out = bench.measure(0.1)
    # Every measured op fails; the warm-up op ran before the corruption.
    assert out["failed"] == out["attempted"] - 1 >= 2


def test_seed_changes_inputs_but_not_the_metric_set(runs, tmp_path):
    for workload in harness.OFFLINE_WORKLOADS:
        a = offline.OfflineWorkload(workload, 0, 8, tmp_path).build_graph()
        b = offline.OfflineWorkload(workload, 1, 8, tmp_path).build_graph()
        assert not (np.array_equal(a.x_ptr, b.x_ptr) and np.array_equal(a.x_adj, b.x_adj))
    assert online.make_inputs(0, 8)[0][0].live != online.make_inputs(1, 8)[0][0].live
    seed0, seed1 = _by_workload(runs[("0", 0)]), _by_workload(runs[("0", 1)])
    assert runs[("0", 1)]["correct"] is True
    assert set(seed1) == {"ks-rmat", "online-churn"}
    for workload, units in seed1.items():
        assert units == seed0[workload], workload
