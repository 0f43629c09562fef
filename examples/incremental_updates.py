"""Dynamic structural-rank tracking with the incremental matcher.

A circuit-editing scenario: start from a structurally nonsingular system,
delete and insert pattern entries one at a time, and watch the structural
rank (maximum matching) update after each edit. Each edit is repaired by
MS-BFS-Graft warm-started from the current matching, which keeps every
matched edge the edit left alone; a from-scratch run cross-checks every
step.

Run:  python examples/incremental_updates.py
"""

import numpy as np

import repro
from repro.graph.generators import planted_matching
from repro.matching.incremental import IncrementalMatcher


def main() -> None:
    rng = np.random.default_rng(11)
    graph = planted_matching(60, extra_edges=120, seed=11)
    matcher = IncrementalMatcher.from_graph(graph)
    print(f"start: n=60+60, structural rank = {matcher.cardinality}")

    edits = 0
    rank_drops = 0
    xs, ys = graph.edge_arrays()
    for step in range(40):
        if rng.random() < 0.5 and matcher.cardinality > 0:
            # Delete a random existing edge (possibly matched).
            k = int(rng.integers(xs.shape[0]))
            changed = matcher.remove_edge(int(xs[k]), int(ys[k]))
            kind = "delete"
        else:
            changed = matcher.add_edge(int(rng.integers(60)), int(rng.integers(60)))
            kind = "insert"
        edits += 1
        rank_drops += kind == "delete" and changed
        # Cross-check against a from-scratch run.
        fresh = repro.ms_bfs_graft(matcher.graph(), emit_trace=False).cardinality
        assert matcher.cardinality == fresh, (step, matcher.cardinality, fresh)

    repro.verify_maximum(matcher.graph(), matcher.matching())
    print(f"after {edits} random edits: structural rank = {matcher.cardinality} "
          f"({rank_drops} deletions lowered the rank)")
    print("every step cross-checked against a from-scratch MS-BFS-Graft run")
    print("incremental structural rank verified")


if __name__ == "__main__":
    main()
