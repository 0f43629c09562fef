"""Matching algorithms: state, initialisers, baselines, verification.

Maximal-matching initialisers (Section II-B: all maximum algorithms here are
initialised with Karp-Sipser, as in the paper):

* :func:`karp_sipser` — degree-1 rule + random edges;
* :func:`greedy_matching` — first-fit greedy;

Maximum-matching baselines (the five algorithms of Fig. 1 plus PR):

* :func:`ss_bfs` / :func:`ss_dfs` — single-source searches (Algorithm 1);
* :func:`ms_bfs` — multi-source BFS (Algorithm 2, no grafting);
* :func:`hopcroft_karp` — shortest-augmenting-path phases;
* :func:`pothen_fan` — multi-source DFS with lookahead and fairness;
* :func:`push_relabel` — FIFO push-relabel with global relabelling.

The paper's own algorithm, MS-BFS-Graft, lives in :mod:`repro.core`.
"""

from repro._lazy import lazy_exports

# Names shared with their submodule stay eager (see repro._lazy).
from repro.matching.karp_sipser import karp_sipser
from repro.matching.karp_sipser_parallel import karp_sipser_parallel
from repro.matching.ss_bfs import ss_bfs
from repro.matching.ss_dfs import ss_dfs
from repro.matching.ms_bfs import ms_bfs
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.pothen_fan import pothen_fan
from repro.matching.push_relabel import push_relabel

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.matching.base": ("Matching", "MatchResult"),
    "repro.matching.verify": (
        "assert_valid_matching",
        "is_valid_matching",
        "is_maximal_matching",
        "is_maximum_matching",
        "verify_maximum",
        "koenig_vertex_cover",
        "hall_violator",
    ),
    "repro.matching.greedy": ("greedy_matching",),
    "repro.matching.incremental": ("IncrementalMatcher",),
})

__all__ = [
    "Matching",
    "MatchResult",
    "assert_valid_matching",
    "is_valid_matching",
    "is_maximal_matching",
    "is_maximum_matching",
    "verify_maximum",
    "koenig_vertex_cover",
    "hall_violator",
    "karp_sipser",
    "karp_sipser_parallel",
    "greedy_matching",
    "ss_bfs",
    "ss_dfs",
    "ms_bfs",
    "hopcroft_karp",
    "pothen_fan",
    "push_relabel",
    "IncrementalMatcher",
]
