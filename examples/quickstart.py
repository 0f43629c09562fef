"""Quickstart: maximum cardinality matching with MS-BFS-Graft.

Builds a scale-free bipartite graph, initialises with Karp-Sipser (as every
experiment in the paper does), runs the tree-grafting algorithm, certifies
the result, and prints the search statistics the paper reports.

Run:  python examples/quickstart.py
"""

import repro


def main() -> None:
    # An RMAT graph with Graph500 parameters: 2^13 vertices per side.
    graph = repro.graph.rmat_bipartite(scale=13, edge_factor=8, seed=42)
    print(f"graph: {graph}")

    # Step 1 — maximal matching initialisation (Section II-B). The paper
    # uses the multithreaded Karp-Sipser of Azad et al.; its parallel round
    # semantics leave a little more work for the maximum-matching phase
    # than the serial heuristic would.
    init = repro.karp_sipser_parallel(graph, seed=1, max_degree_one_rounds=2)
    print(f"Karp-Sipser (parallel rounds) initial matching: |M| = {init.cardinality:,}")

    # Step 2 — MS-BFS-Graft to maximum cardinality (Algorithm 3).
    # emit_trace keeps the work trace the simulator reads below.
    result = repro.ms_bfs_graft(graph, init.matching, emit_trace=True)
    print(f"maximum matching:             |M| = {result.cardinality:,}")
    print(f"matching number (2|M|/|V|):   {result.matching.matching_fraction():.4f}")

    # Step 3 — certify optimality (Berge + König certificates).
    repro.verify_maximum(graph, result.matching)
    print("certified maximum (no augmenting path; König cover of equal size)")

    # The paper's Fig. 1 metrics for this run:
    c = result.counters
    print(f"\nsearch statistics")
    print(f"  edges traversed : {c.edges_traversed:,}")
    print(f"  phases          : {c.phases}")
    print(f"  augmentations   : {c.augmentations}")
    print(f"  avg path length : {c.avg_augmenting_path_length:.2f} edges")
    print(f"  grafted vertices: {c.grafts}")
    print(f"  wall time       : {result.wall_seconds * 1e3:.1f} ms")

    # Simulate the run on the paper's 40-core machine.
    sim1 = repro.CostModel(repro.MIRASOL).simulate(result.trace, 1)
    sim40 = repro.CostModel(repro.MIRASOL).simulate(result.trace, 40)
    print(f"\nsimulated Mirasol runtime: {sim1.seconds * 1e3:.2f} ms serial, "
          f"{sim40.seconds * 1e3:.2f} ms on 40 threads "
          f"({sim1.seconds / sim40.seconds:.1f}x speedup)")


if __name__ == "__main__":
    main()
