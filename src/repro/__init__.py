"""repro — reproduction of "A Parallel Tree Grafting Algorithm for Maximum
Cardinality Matching in Bipartite Graphs" (Azad, Buluç, Pothen, IPDPS 2015).

Quickstart::

    import repro

    graph = repro.graph.rmat_bipartite(scale=14, edge_factor=8, seed=1)
    init = repro.karp_sipser(graph, seed=1).matching
    result = repro.ms_bfs_graft(graph, init)
    print(result.cardinality, result.counters.phases)
    repro.verify_maximum(graph, result.matching)

Subpackages: :mod:`repro.graph` (bipartite CSR substrate, generators, I/O),
:mod:`repro.matching` (initialisers, baseline maximum-matching algorithms,
verification), :mod:`repro.core` (MS-BFS-Graft), :mod:`repro.parallel`
(simulated NUMA machine + cost model), :mod:`repro.instrument` (counters,
rates), :mod:`repro.apps` (Dulmage-Mendelsohn / block triangular form),
:mod:`repro.bench` (experiment harness for every paper table and figure).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.driver": ("ms_bfs_graft",),
    "repro.errors": ("ReproError",),
    "repro.matching.base": ("Matching", "MatchResult"),
    "repro.matching.greedy": ("greedy_matching",),
    "repro.matching.incremental": ("IncrementalMatcher",),
    "repro.matching.hopcroft_karp": ("hopcroft_karp",),
    "repro.matching.karp_sipser": ("karp_sipser",),
    "repro.matching.karp_sipser_parallel": ("karp_sipser_parallel",),
    "repro.matching.ms_bfs": ("ms_bfs",),
    "repro.matching.pothen_fan": ("pothen_fan",),
    "repro.matching.push_relabel": ("push_relabel",),
    "repro.matching.ss_bfs": ("ss_bfs",),
    "repro.matching.ss_dfs": ("ss_dfs",),
    "repro.matching.verify": ("is_maximum_matching", "verify_maximum"),
    "repro.parallel.cost_model": ("CostModel",),
    "repro.parallel.machine": ("EDISON", "LAPTOP", "MIRASOL", "MachineSpec"),
})

__version__ = "1.0.0"

__all__ = [
    "graph",
    "ms_bfs_graft",
    "ms_bfs",
    "karp_sipser",
    "karp_sipser_parallel",
    "greedy_matching",
    "IncrementalMatcher",
    "ss_bfs",
    "ss_dfs",
    "hopcroft_karp",
    "pothen_fan",
    "push_relabel",
    "Matching",
    "MatchResult",
    "is_maximum_matching",
    "verify_maximum",
    "CostModel",
    "MachineSpec",
    "MIRASOL",
    "EDISON",
    "LAPTOP",
    "ReproError",
    "__version__",
]
