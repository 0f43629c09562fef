"""Differential test: five independent maximum-matching implementations agree.

Roughly 200 seeded random graphs across the three benchmark families
(Erdős–Rényi, RMAT, skewed power-law) plus handcrafted corners (empty
graph, isolated vertices, planted perfect matchings, long augmenting
chains). On every instance, both MS-BFS-Graft backends (the serial python
reference and the vectorized numpy engine) and the three baseline
algorithms must return the same cardinality as scipy's compiled
``maximum_bipartite_matching`` (an oracle outside this package), and every
returned matching must independently certify as maximum (Berge + König +
Hall in ``matching/verify.py``).

This is the primary correctness witness for the vectorized frontier
kernels: the python engine is a direct transcription of Algorithm 3, so
agreement on hundreds of structurally varied instances pins the bulk
scatter/claim kernels to the reference semantics.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.graph.builder import from_edges
from repro.graph.generators import (
    chain_graph,
    complete_bipartite,
    crown_graph,
    planted_matching,
    power_law_bipartite,
    random_bipartite,
    rmat_bipartite,
)
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.ms_bfs import ms_bfs
from repro.matching.pothen_fan import pothen_fan
from repro.matching.push_relabel import push_relabel
from repro.matching.verify import verify_maximum

# --- instance catalogue ----------------------------------------------------
# Each entry is (id, zero-arg builder). Builders are lazy so collection stays
# instant and a single failing instance names itself in the pytest id.

CASES: list[tuple[str, object]] = []


def _case(name, builder):
    CASES.append((name, builder))


# ~90 Erdős–Rényi instances: sweep shape (square, wide, tall) and density.
for i in range(30):
    n = 4 + 2 * (i % 9)
    _case(f"er-square-{i}", lambda n=n, i=i: random_bipartite(n, n, 2 * n + i % 7, seed=100 + i))
for i in range(30):
    n = 5 + (i % 8)
    _case(
        f"er-wide-{i}",
        lambda n=n, i=i: random_bipartite(n, 2 * n + 3, 3 * n + i % 5, seed=300 + i),
    )
for i in range(30):
    n = 5 + (i % 8)
    _case(
        f"er-tall-{i}",
        lambda n=n, i=i: random_bipartite(2 * n + 3, n, 3 * n + i % 5, seed=500 + i),
    )

# ~50 RMAT instances: the paper's skewed community structure, small scales.
for i in range(50):
    scale = 4 + (i % 4)
    _case(
        f"rmat-{i}",
        lambda scale=scale, i=i: rmat_bipartite(scale=scale, edge_factor=3 + i % 4, seed=700 + i),
    )

# ~40 skewed power-law instances, including isolated-vertex-heavy ones.
for i in range(25):
    n = 12 + 3 * (i % 6)
    _case(
        f"skew-{i}",
        lambda n=n, i=i: power_law_bipartite(
            n, n, avg_degree=2.5 + (i % 3), exponent=1.9 + 0.1 * (i % 4), seed=900 + i
        ),
    )
for i in range(15):
    n = 15 + 2 * (i % 5)
    _case(
        f"skew-isolated-{i}",
        lambda n=n, i=i: power_law_bipartite(
            n, n, avg_degree=2.0, exponent=2.1, isolated_fraction=0.3, seed=1100 + i
        ),
    )

# ~20 corners: degenerate and adversarial structure.
_case("empty-0x0", lambda: from_edges(0, 0, np.empty((0, 2), dtype=np.int64)))
_case("empty-5x3", lambda: from_edges(5, 3, np.empty((0, 2), dtype=np.int64)))
_case("empty-1x9", lambda: from_edges(1, 9, np.empty((0, 2), dtype=np.int64)))
_case("single-edge", lambda: from_edges(4, 4, np.array([[2, 1]], dtype=np.int64)))
_case(
    "isolated-rows",
    lambda: from_edges(8, 8, np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)),
)
_case(
    "star-x",  # one X vertex sees every Y: max matching is 1
    lambda: from_edges(6, 6, np.column_stack([np.zeros(6, dtype=np.int64),
                                              np.arange(6, dtype=np.int64)])),
)
_case(
    "star-y",
    lambda: from_edges(6, 6, np.column_stack([np.arange(6, dtype=np.int64),
                                              np.zeros(6, dtype=np.int64)])),
)
for k in (1, 2, 5, 9):
    _case(f"chain-{k}", lambda k=k: chain_graph(k))
for n in (6, 11, 17):
    _case(f"perfect-{n}", lambda n=n: planted_matching(n, extra_edges=n, seed=n))
_case("perfect-plain", lambda: planted_matching(13, extra_edges=0, seed=0))
for n in (3, 7):
    _case(f"complete-{n}", lambda n=n: complete_bipartite(n, n + 2))
for n in (2, 5, 8):
    _case(f"crown-{n}", lambda n=n: crown_graph(n))
_case("complete-1x1", lambda: complete_bipartite(1, 1))

assert len(CASES) >= 200, f"differential catalogue shrank to {len(CASES)} cases"

ALGORITHMS = (
    ("ms-bfs/python", lambda g: ms_bfs(g, engine="python", emit_trace=False)),
    ("ms-bfs/numpy", lambda g: ms_bfs(g, engine="numpy", emit_trace=False)),
    ("pothen-fan", lambda g: pothen_fan(g)),
    ("hopcroft-karp", lambda g: hopcroft_karp(g)),
    ("push-relabel", lambda g: push_relabel(g)),
)


def scipy_cardinality(graph) -> int:
    """Maximum matching size from scipy's compiled matcher, an oracle that
    shares none of this package's CSR or matching code."""
    xs, ys = graph.edge_arrays()
    biadj = csr_matrix((np.ones(xs.size), (xs, ys)), shape=(graph.n_x, graph.n_y))
    return int((maximum_bipartite_matching(biadj, perm_type="column") >= 0).sum())


@pytest.mark.parametrize(("name", "builder"), CASES, ids=[c[0] for c in CASES])
def test_all_algorithms_agree(name, builder):
    graph = builder()
    cardinalities = {"scipy": scipy_cardinality(graph)}
    for algo_name, run in ALGORITHMS:
        result = run(graph)
        # Every matching must certify as maximum on its own (Berge + König),
        # not merely agree with the others.
        verify_maximum(graph, result.matching)
        cardinalities[algo_name] = result.cardinality
    assert len(set(cardinalities.values())) == 1, (
        f"{name}: cardinality disagreement {cardinalities}"
    )
