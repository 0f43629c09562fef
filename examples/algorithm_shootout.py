"""Compare all nine maximum-matching algorithms on one graph.

Reproduces the flavour of the paper's Fig. 1/Fig. 3 comparisons on a single
instance: every algorithm gets the same Karp-Sipser initial matching and
must reach the same certified maximum; the table reports the paper's three
search properties plus wall time and (for the parallel trio) simulated
40-thread Mirasol time.

Run:  python examples/algorithm_shootout.py [suite-graph-name]
"""

import sys

import repro
from repro.bench.report import format_table
from repro.bench.runner import ALGORITHMS, PARALLEL_ALGORITHMS, run_algorithm, suite_initializer
from repro.bench.suite import get_suite_graph, suite_specs


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "webgoogle-like"
    if name not in suite_specs():
        raise SystemExit(f"unknown graph {name!r}; pick one of {suite_specs()}")
    sg = get_suite_graph(name, scale=0.4)
    graph = sg.graph
    init = suite_initializer(graph, seed=0)
    print(f"graph {name}: n={graph.num_vertices:,}, m={graph.num_directed_edges:,}, "
          f"initial |M|={init.cardinality:,}")

    model = repro.CostModel(repro.MIRASOL)
    rows = []
    expected = None
    for algo in ALGORITHMS:
        result = run_algorithm(algo, graph, init, emit_trace=True)
        repro.verify_maximum(graph, result.matching)
        if expected is None:
            expected = result.cardinality
        assert result.cardinality == expected, algo
        sim40 = ""
        if algo in PARALLEL_ALGORITHMS and result.trace is not None:
            sim40 = f"{model.simulate(result.trace, 40).seconds * 1e3:.2f}"
        c = result.counters
        rows.append([
            algo, c.edges_traversed, c.phases,
            round(c.avg_augmenting_path_length, 1),
            f"{result.wall_seconds * 1e3:.1f}", sim40,
        ])
    print()
    print(format_table(
        ["algorithm", "edges traversed", "phases", "avg path", "wall ms", "sim 40t ms"],
        rows,
        title=f"all algorithms reach the certified maximum |M| = {expected:,}",
    ))


if __name__ == "__main__":
    main()
