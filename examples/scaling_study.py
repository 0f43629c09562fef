"""Strong-scaling study on the simulated Mirasol and Edison machines
(the paper's Fig. 5 experiment, runnable on any laptop).

Runs MS-BFS-Graft on one graph per class, simulates the work trace across
thread counts on both machine models, and renders the speedup curves.

Run:  python examples/scaling_study.py
"""

import repro
from repro.bench.report import format_bar_chart
from repro.bench.runner import run_algorithm, suite_initializer
from repro.bench.suite import get_suite_graph

GRAPHS = ("kkt-like", "copapers-like", "wikipedia-like")
THREAD_SWEEP = {
    "Mirasol": [1, 2, 5, 10, 20, 40, 80],
    "Edison": [1, 2, 6, 12, 24, 48],
}


def main() -> None:
    for name in GRAPHS:
        sg = get_suite_graph(name, scale=0.5)
        init = suite_initializer(sg.graph, seed=0)
        result = run_algorithm("ms-bfs-graft", sg.graph, init, emit_trace=True)
        print(f"\n=== {name} ({sg.group}; n={sg.graph.num_vertices:,}, "
              f"m={sg.graph.num_directed_edges:,}) ===")
        for machine in (repro.MIRASOL, repro.EDISON):
            model = repro.CostModel(machine)
            serial = model.simulate(result.trace, 1).seconds
            speedups = {
                f"{p:>3d} threads": serial / model.simulate(result.trace, p).seconds
                for p in THREAD_SWEEP[machine.name]
            }
            print()
            print(format_bar_chart(speedups, title=f"{machine.name} speedup", unit="x"))


if __name__ == "__main__":
    main()
