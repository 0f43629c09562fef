"""Applications built on maximum matching.

The paper's introduction motivates maximum cardinality matching with the
Dulmage-Mendelsohn decomposition: permuting a sparse matrix to block
triangular form (BTF) so that linear solves and structural-rank analyses
can work block by block. This package implements that pipeline on top of
:func:`repro.ms_bfs_graft`:

* :func:`dulmage_mendelsohn` — the coarse DM decomposition of a bipartite
  graph into horizontal / square / vertical parts;
* :func:`block_triangular_form` — row/column permutations bringing a sparse
  matrix to BTF (fine decomposition of the square part via strongly
  connected components);
* :func:`structural_rank` — maximum matching cardinality of the sparsity
  pattern.
"""

from repro._lazy import lazy_exports

# Names shared with their submodule stay eager (see repro._lazy).
from repro.apps.dulmage_mendelsohn import dulmage_mendelsohn

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.dulmage_mendelsohn": ("DMDecomposition",),
    "repro.apps.btf": (
        "BlockTriangularForm",
        "block_triangular_form",
        "structural_rank",
    ),
    "repro.apps.btf_solve": ("solve_btf",),
})

__all__ = [
    "DMDecomposition",
    "dulmage_mendelsohn",
    "BlockTriangularForm",
    "block_triangular_form",
    "structural_rank",
    "solve_btf",
]
