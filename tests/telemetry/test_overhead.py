"""Bound the cost of the disabled telemetry path.

The acceptance criterion is that running an engine with telemetry disabled
(``options.telemetry is None`` → ``NULL_TELEMETRY``) costs at most ~2% over
an uninstrumented engine. Comparing two wall-clock timings of full runs is
hopelessly noisy at unit-test scale, so the bound is computed structurally:
measure the per-invocation cost of the null hooks directly, count how many
times a real run invokes them (from an enabled-telemetry run of the same
workload), and compare the product against the run's measured wall time.
"""

import time

from repro.core.driver import ms_bfs_graft
from repro.graph.generators import surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


def _per_call_seconds(repeats: int = 20000) -> float:
    """Median-of-5 per-invocation cost of one null step span."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            with NULL_TELEMETRY.step("topdown"):
                pass
        samples.append((time.perf_counter() - t0) / repeats)
    return sorted(samples)[2]


def test_disabled_telemetry_overhead_within_budget():
    graph = surplus_core_bipartite(600, 360, seed=5)
    init = greedy_matching(graph, shuffle=True, seed=1).matching

    # Count hook invocations with a live session: every hook the engine
    # calls per level or kernel step is a step span, so the number of spans
    # the tracer recorded bounds them (the engine metrics are written once,
    # by finish_run, at the end of the run).
    tel = Telemetry()
    traced = ms_bfs_graft(graph, init, engine="numpy", telemetry=tel)
    hook_calls = len(tel.tracer.spans)

    # Median-of-5 wall time of the disabled-path run (telemetry=None).
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        ms_bfs_graft(graph, init, engine="numpy")
        runs.append(time.perf_counter() - t0)
    wall = sorted(runs)[2]

    overhead = _per_call_seconds() * hook_calls
    assert traced.counters.phases >= 1  # the workload actually ran
    # ~2% criterion with a generous 4x slack against scheduler noise.
    assert overhead <= 0.08 * wall, (
        f"disabled-telemetry seam cost {overhead * 1e6:.1f}us vs "
        f"run wall {wall * 1e6:.1f}us"
    )
