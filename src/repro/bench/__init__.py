"""Benchmark harness: the paper's graph suite and experiment drivers.

One driver per table/figure of the evaluation section; the ``benchmarks/``
directory wraps these in pytest-benchmark targets, and ``repro.cli`` exposes
them on the command line. All drivers return plain data structures plus a
``render`` helper producing the paper-style ASCII table.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.suite": (
        "SuiteGraph",
        "build_suite",
        "suite_specs",
        "get_suite_graph",
    ),
    "repro.bench.runner": ("run_algorithm", "ALGORITHMS"),
    "repro.bench.report": ("format_table", "format_bar_chart", "format_series"),
    "repro.bench.kernels_bench": (
        "run_kernel_bench",
        "validate_kernel_bench",
        "render_kernel_bench",
    ),
})

__all__ = [
    "SuiteGraph",
    "build_suite",
    "suite_specs",
    "get_suite_graph",
    "run_algorithm",
    "ALGORITHMS",
    "format_table",
    "format_bar_chart",
    "format_series",
    "run_kernel_bench",
    "validate_kernel_bench",
    "render_kernel_bench",
]
