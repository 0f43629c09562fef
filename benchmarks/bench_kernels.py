"""Kernel backend baseline: pure-python vs vectorized frontier kernels.

The smoke target runs the full harness at a tiny scale on every bench
invocation (cheap, validates schema + backend agreement); the ``slow``
target reproduces the committed ``benchmarks/BENCH_kernels.json`` at
scale 1.0 (the 2^14-vertex RMAT acceptance instance) and rewrites it.
Refresh the baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -m slow

``repro-match perf-check`` re-times it at the same scale and repeats.
"""

import os

import pytest
from conftest import emit

from repro.bench.kernels_bench import (
    render_kernel_bench,
    run_kernel_bench,
    validate_kernel_bench,
    write_kernel_bench,
)

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_kernels.json")


def test_kernel_backends_smoke(benchmark):
    doc = benchmark.pedantic(
        run_kernel_bench, kwargs={"scale": 0.05, "repeats": 2},
        rounds=1, iterations=1,
    )
    validate_kernel_bench(doc)
    emit("Kernel backends (smoke scale)", render_kernel_bench(doc))
    assert [g["name"] for g in doc["graphs"]] == ["rmat", "er", "skewed"]


@pytest.mark.slow
def test_kernel_backends_baseline(benchmark):
    doc = benchmark.pedantic(
        run_kernel_bench, kwargs={"scale": 1.0, "repeats": 3},
        rounds=1, iterations=1,
    )
    emit("Kernel backends (baseline scale 1.0)", render_kernel_bench(doc))
    write_kernel_bench(doc, BASELINE_PATH)
    rmat = next(g for g in doc["graphs"] if g["name"] == "rmat")
    # The acceptance bar for the vectorized fast path: >= 3x on rmat14.
    assert rmat["speedup"] >= 3.0
