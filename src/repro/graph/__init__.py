"""Bipartite graph substrate: CSR storage, builders, generators, and I/O.

The whole package works on :class:`BipartiteCSR`, a compressed-sparse-row
representation of an undirected bipartite graph that stores *both* adjacency
directions (X->Y and Y->X), mirroring the paper's Section IV-B convention of
keeping each nonzero as two directed edges so that top-down and bottom-up
searches are both cheap.
"""

from repro._lazy import lazy_exports

# Names shared with their submodule stay eager (see repro._lazy).
from repro.graph.permute import permute

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.csr": ("BipartiteCSR",),
    "repro.graph.builder": (
        "from_edges",
        "from_biadjacency_lists",
        "from_scipy_sparse",
        "from_dense",
        "from_networkx",
        "to_scipy_sparse",
        "to_networkx",
    ),
    "repro.graph.generators": (
        "random_bipartite",
        "random_bipartite_gnp",
        "rmat_bipartite",
        "grid_bipartite",
        "road_like",
        "power_law_bipartite",
        "community_bipartite",
        "planted_matching",
        "surplus_core_bipartite",
        "chain_graph",
        "complete_bipartite",
        "crown_graph",
    ),
    "repro.graph.io": ("read_matrix_market", "write_matrix_market"),
    "repro.graph.readers": ("LabelledGraph", "read_snap_edgelist", "read_dimacs"),
    "repro.graph.serialize": ("load_graph", "save_graph"),
    "repro.graph.components": (
        "ComponentLabels",
        "connected_components",
        "extract_component",
        "match_by_components",
    ),
    "repro.graph.permute": ("random_permutation",),
    "repro.graph.properties": ("GraphProperties", "analyze"),
})

__all__ = [
    "BipartiteCSR",
    "from_edges",
    "from_biadjacency_lists",
    "from_scipy_sparse",
    "from_dense",
    "from_networkx",
    "to_scipy_sparse",
    "to_networkx",
    "random_bipartite",
    "random_bipartite_gnp",
    "rmat_bipartite",
    "grid_bipartite",
    "road_like",
    "power_law_bipartite",
    "community_bipartite",
    "planted_matching",
    "surplus_core_bipartite",
    "chain_graph",
    "complete_bipartite",
    "crown_graph",
    "read_matrix_market",
    "write_matrix_market",
    "LabelledGraph",
    "read_snap_edgelist",
    "read_dimacs",
    "load_graph",
    "save_graph",
    "ComponentLabels",
    "connected_components",
    "extract_component",
    "match_by_components",
    "permute",
    "random_permutation",
    "GraphProperties",
    "analyze",
]
