"""Trajectory parity of the three shared-memory engines.

Pins, for the python, numpy and interleaved engines, everything a run
reports about its execution: every ``Counters`` field (``path_lengths``
included), the per-phase frontier sizes, the algorithm name and the final
matching. The grid covers six graph shapes, grafting on/off, direction
optimisation on/off and both direction rules (``vertex`` and ``edge``).

All three engines run through the shared phase driver
(:mod:`repro.core.engine_loop`); these values were recorded from the
engines' own loops before that driver existed, so any difference means the
driver changed some engine's execution order or work accounting. Two
deliberate changes were re-recorded since:

* the top-down grafting sweep (the driver grafts from the active X when
  they are fewer than the renewable rows) moved only the grafting,
  direction-optimising er and isolated rows;
* the numpy engine's frontier-side build of a fresh phase's first
  bottom-up level (``kernels.bottomup_from_frontier``) builds the same
  forest from fewer adjacency reads, so it moved only ``edges_traversed``
  of the numpy rmat, er and isolated rows with grafting off, direction
  optimisation on and the ``vertex`` rule (2019 -> 827, 2242 -> 1559,
  1133 -> 582); every other field, the frontier sizes and the matching
  were checked unchanged before re-recording.

The ``paths`` rows were added later, recorded before the numpy kernels
stopped copying all-true selections. Every other row is the original
recording. Each row keeps the headline counters readable next to a
digest of the full record. The interleaved engine kept no frontier log
before the driver existed, so its digest leaves the frontier sizes out.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.engine_interleaved import run_interleaved
from repro.core.engine_numpy import run_numpy
from repro.core.engine_python import run_python
from repro.core.options import GraftOptions
from repro.graph.builder import from_edges
from repro.graph.generators import (
    chain_graph,
    grid_bipartite,
    random_bipartite,
    rmat_bipartite,
    surplus_core_bipartite,
)
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching


def _chain_case():
    # x_{i+1} - y_i matched: one augmenting path through the whole chain.
    k = 40
    graph = chain_graph(k)
    initial = Matching.from_pairs(k, k, [(i + 1, i) for i in range(k - 1)])
    return graph, initial


def _isolated_case():
    # Every third X and every fourth Y vertex has no edge at all.
    rng = np.random.default_rng(17)
    xs = [x for x in range(90) if x % 3]
    ys = [y for y in range(80) if y % 4]
    edges = {(int(rng.choice(xs)), int(rng.choice(ys))) for _ in range(200)}
    return from_edges(90, 80, sorted(edges)), None


def _paths_case():
    # Six disjoint chains of 3..8 X/Y pairs, each matched like the chain
    # case: six trees grow in lockstep and no claim is ever contested, so
    # every numpy-kernel selection also meets an all-true mask.
    edges, pairs, base = [], [], 0
    for k in range(3, 9):
        edges += [(base + i, base + i) for i in range(k)]
        edges += [(base + i + 1, base + i) for i in range(k - 1)]
        pairs += [(base + i + 1, base + i) for i in range(k - 1)]
        base += k
    return from_edges(base, base, edges), Matching.from_pairs(base, base, pairs)


def _surplus_case():
    graph = surplus_core_bipartite(150, 90, seed=5)
    return graph, greedy_matching(graph, shuffle=True, seed=1).matching


GRAPHS = {
    "rmat": lambda: (rmat_bipartite(7, edge_factor=4, seed=11), None),
    "er": lambda: (random_bipartite(120, 100, 400, seed=3), None),
    "surplus": _surplus_case,
    "grid": lambda: (grid_bipartite(10, 10), None),
    "chain": _chain_case,
    "isolated": _isolated_case,
    "paths": _paths_case,
}

FLAGS = list(itertools.product((True, False), (True, False), ("vertex", "edge")))
"""(grafting, direction_optimizing, direction_strategy) combinations."""


def run_engine(engine, graph, initial, grafting, direction, strategy):
    options = GraftOptions(
        grafting=grafting,
        direction_optimizing=direction,
        direction_strategy=strategy,
    )
    if engine == "python":
        return run_python(graph, initial, options)
    if engine == "numpy":
        return run_numpy(graph, initial, options)
    return run_interleaved(graph, initial, options, threads=4, seed=7)


def record(result, frontiers=True):
    """``(phases, levels, edges, augmentations, grafts, rebuilds, digest)``."""
    c = result.counters
    full = {
        "counters": asdict(c),
        "frontiers": result.frontier_log.phases if frontiers else None,
        "algorithm": result.algorithm,
        "mate_x": result.matching.mate_x.tolist(),
    }
    digest = hashlib.sha256(json.dumps(full, sort_keys=True).encode()).hexdigest()
    return (
        c.phases,
        c.bfs_levels,
        c.edges_traversed,
        c.augmentations,
        c.grafts,
        c.tree_rebuilds,
        digest[:16],
    )


GOLDEN = {
    ('rmat', 'python', True, True, 'vertex'): (9, 13, 1443, 60, 191, 0, '232b51e611e20727'),
    ('rmat', 'numpy', True, True, 'vertex'): (7, 14, 1259, 60, 83, 0, '73b29ffdc277693a'),
    ('rmat', 'interleaved', True, True, 'vertex'): (6, 11, 989, 60, 44, 0, '313504dbe8533034'),
    ('rmat', 'python', True, True, 'edge'): (8, 12, 2136, 60, 185, 0, '340d4a8cd59c5de9'),
    ('rmat', 'numpy', True, True, 'edge'): (7, 14, 1662, 60, 83, 0, '3409f86a6115c405'),
    ('rmat', 'interleaved', True, True, 'edge'): (5, 9, 1101, 60, 42, 0, '713929b5f321a5d8'),
    ('rmat', 'python', True, False, 'vertex'): (10, 14, 1324, 60, 204, 0, '579373e2331f2987'),
    ('rmat', 'numpy', True, False, 'vertex'): (7, 14, 1572, 60, 83, 0, '532fd07eb0469c02'),
    ('rmat', 'interleaved', True, False, 'vertex'): (8, 16, 1212, 60, 117, 0, '3ec9458f71fa8647'),
    ('rmat', 'python', True, False, 'edge'): (10, 14, 1324, 60, 204, 0, '579373e2331f2987'),
    ('rmat', 'numpy', True, False, 'edge'): (7, 14, 1572, 60, 83, 0, '532fd07eb0469c02'),
    ('rmat', 'interleaved', True, False, 'edge'): (8, 16, 1212, 60, 117, 0, '3ec9458f71fa8647'),
    ('rmat', 'python', False, True, 'vertex'): (7, 16, 2523, 60, 0, 6, 'f9c32d65475c1b93'),
    ('rmat', 'numpy', False, True, 'vertex'): (6, 17, 827, 60, 0, 5, 'a836f780bf86039c'),
    ('rmat', 'interleaved', False, True, 'vertex'): (5, 13, 1658, 60, 0, 4, '841253c0b6639562'),
    ('rmat', 'python', False, True, 'edge'): (4, 12, 791, 60, 0, 3, '0b075cb9d1c1afea'),
    ('rmat', 'numpy', False, True, 'edge'): (6, 17, 1140, 60, 0, 5, '7c5c02524612ac7d'),
    ('rmat', 'interleaved', False, True, 'edge'): (3, 7, 649, 60, 0, 2, '786d902ec0eb3091'),
    ('rmat', 'python', False, False, 'vertex'): (4, 11, 514, 60, 0, 3, '00c59543acdab0fb'),
    ('rmat', 'numpy', False, False, 'vertex'): (6, 17, 977, 60, 0, 5, '99cc4dad768ccfc6'),
    ('rmat', 'interleaved', False, False, 'vertex'): (5, 19, 673, 60, 0, 4, '6017332f32209329'),
    ('rmat', 'python', False, False, 'edge'): (4, 11, 514, 60, 0, 3, '00c59543acdab0fb'),
    ('rmat', 'numpy', False, False, 'edge'): (6, 17, 977, 60, 0, 5, '99cc4dad768ccfc6'),
    ('rmat', 'interleaved', False, False, 'edge'): (5, 19, 673, 60, 0, 4, '6017332f32209329'),
    ('er', 'python', True, True, 'vertex'): (4, 8, 657, 99, 113, 0, 'c81e5c40cb004c6e'),
    ('er', 'numpy', True, True, 'vertex'): (5, 15, 947, 99, 201, 0, '0a0421c1455cfdac'),
    ('er', 'interleaved', True, True, 'vertex'): (4, 9, 655, 99, 87, 0, '150b7f17d940d5a6'),
    ('er', 'python', True, True, 'edge'): (4, 8, 663, 99, 113, 0, '8a1db369d2c3d3e0'),
    ('er', 'numpy', True, True, 'edge'): (5, 15, 988, 99, 201, 0, '75e469024d109c74'),
    ('er', 'interleaved', True, True, 'edge'): (4, 9, 655, 99, 87, 0, '150b7f17d940d5a6'),
    ('er', 'python', True, False, 'vertex'): (4, 12, 1114, 99, 143, 0, 'c298c5c3a59ef7d3'),
    ('er', 'numpy', True, False, 'vertex'): (6, 20, 1709, 99, 215, 0, '84a02bf6e2cc8d25'),
    ('er', 'interleaved', True, False, 'vertex'): (6, 14, 1305, 99, 163, 0, '1a35bf20f591763c'),
    ('er', 'python', True, False, 'edge'): (4, 12, 1114, 99, 143, 0, 'c298c5c3a59ef7d3'),
    ('er', 'numpy', True, False, 'edge'): (6, 20, 1709, 99, 215, 0, '84a02bf6e2cc8d25'),
    ('er', 'interleaved', True, False, 'edge'): (6, 14, 1305, 99, 163, 0, '1a35bf20f591763c'),
    ('er', 'python', False, True, 'vertex'): (4, 14, 1391, 99, 0, 3, '5f395b418c32c585'),
    ('er', 'numpy', False, True, 'vertex'): (5, 25, 1559, 99, 0, 4, '3f32aca01fee07b7'),
    ('er', 'interleaved', False, True, 'vertex'): (4, 18, 1467, 99, 0, 3, '075622b314d3a29b'),
    ('er', 'python', False, True, 'edge'): (4, 14, 1029, 99, 0, 3, 'c123a06cd46d2097'),
    ('er', 'numpy', False, True, 'edge'): (5, 25, 1622, 99, 0, 4, '5f2b11a6e651676c'),
    ('er', 'interleaved', False, True, 'edge'): (4, 16, 920, 99, 0, 3, '672a0e162fcdfea0'),
    ('er', 'python', False, False, 'vertex'): (4, 19, 1234, 99, 0, 3, '353c090e5375298c'),
    ('er', 'numpy', False, False, 'vertex'): (4, 16, 1305, 99, 0, 3, '693260f6a01a3ed5'),
    ('er', 'interleaved', False, False, 'vertex'): (4, 19, 1320, 99, 0, 3, '85890241a26a9e24'),
    ('er', 'python', False, False, 'edge'): (4, 19, 1234, 99, 0, 3, '353c090e5375298c'),
    ('er', 'numpy', False, False, 'edge'): (4, 16, 1305, 99, 0, 3, '693260f6a01a3ed5'),
    ('er', 'interleaved', False, False, 'edge'): (4, 19, 1320, 99, 0, 3, '85890241a26a9e24'),
    ('surplus', 'python', True, True, 'vertex'): (2, 4, 326, 4, 17, 0, '633175a1b5e4bb86'),
    ('surplus', 'numpy', True, True, 'vertex'): (2, 5, 559, 4, 25, 0, '035a2a413c48a4ca'),
    ('surplus', 'interleaved', True, True, 'vertex'): (2, 5, 390, 4, 32, 0, '290f0b8ece4af2a0'),
    ('surplus', 'python', True, True, 'edge'): (2, 4, 326, 4, 17, 0, '633175a1b5e4bb86'),
    ('surplus', 'numpy', True, True, 'edge'): (2, 5, 559, 4, 25, 0, '035a2a413c48a4ca'),
    ('surplus', 'interleaved', True, True, 'edge'): (2, 5, 390, 4, 32, 0, '290f0b8ece4af2a0'),
    ('surplus', 'python', True, False, 'vertex'): (2, 6, 953, 4, 24, 0, '06073d71df927f8e'),
    ('surplus', 'numpy', True, False, 'vertex'): (2, 6, 1002, 4, 28, 0, 'f8ae15cce2c4fa9e'),
    ('surplus', 'interleaved', True, False, 'vertex'): (2, 5, 938, 4, 18, 0, 'e09e54e88027a94e'),
    ('surplus', 'python', True, False, 'edge'): (2, 6, 953, 4, 24, 0, '06073d71df927f8e'),
    ('surplus', 'numpy', True, False, 'edge'): (2, 6, 1002, 4, 28, 0, 'f8ae15cce2c4fa9e'),
    ('surplus', 'interleaved', True, False, 'edge'): (2, 5, 938, 4, 18, 0, 'e09e54e88027a94e'),
    ('surplus', 'python', False, True, 'vertex'): (2, 6, 596, 4, 0, 1, '8728658ae6460f7a'),
    ('surplus', 'numpy', False, True, 'vertex'): (2, 8, 1068, 4, 0, 1, 'a9c37456d4679fb5'),
    ('surplus', 'interleaved', False, True, 'vertex'): (2, 7, 674, 4, 0, 1, 'a82f9e341f97a2e6'),
    ('surplus', 'python', False, True, 'edge'): (2, 6, 596, 4, 0, 1, '8728658ae6460f7a'),
    ('surplus', 'numpy', False, True, 'edge'): (2, 8, 1068, 4, 0, 1, 'a9c37456d4679fb5'),
    ('surplus', 'interleaved', False, True, 'edge'): (2, 7, 674, 4, 0, 1, 'a82f9e341f97a2e6'),
    ('surplus', 'python', False, False, 'vertex'): (2, 8, 1666, 4, 0, 1, 'bbe5492ee4b5e33c'),
    ('surplus', 'numpy', False, False, 'vertex'): (2, 8, 1682, 4, 0, 1, '997273abb189314b'),
    ('surplus', 'interleaved', False, False, 'vertex'): (2, 8, 1674, 4, 0, 1, '4ab69ef111c79bfb'),
    ('surplus', 'python', False, False, 'edge'): (2, 8, 1666, 4, 0, 1, 'bbe5492ee4b5e33c'),
    ('surplus', 'numpy', False, False, 'edge'): (2, 8, 1682, 4, 0, 1, '997273abb189314b'),
    ('surplus', 'interleaved', False, False, 'edge'): (2, 8, 1674, 4, 0, 1, '4ab69ef111c79bfb'),
    ('grid', 'python', True, True, 'vertex'): (2, 1, 280, 100, 0, 1, '1f1e097efcb4be3c'),
    ('grid', 'numpy', True, True, 'vertex'): (5, 24, 2378, 100, 0, 4, 'b08086479adacc96'),
    ('grid', 'interleaved', True, True, 'vertex'): (4, 13, 1083, 100, 0, 3, '8748190a41be70e9'),
    ('grid', 'python', True, True, 'edge'): (2, 1, 280, 100, 0, 1, '1f1e097efcb4be3c'),
    ('grid', 'numpy', True, True, 'edge'): (5, 24, 2378, 100, 0, 4, 'b08086479adacc96'),
    ('grid', 'interleaved', True, True, 'edge'): (4, 13, 1083, 100, 0, 3, '8748190a41be70e9'),
    ('grid', 'python', True, False, 'vertex'): (2, 1, 280, 100, 0, 1, 'c60437005bb7b4cf'),
    ('grid', 'numpy', True, False, 'vertex'): (5, 24, 1489, 100, 0, 4, 'f6fa80bc6533a93b'),
    ('grid', 'interleaved', True, False, 'vertex'): (4, 13, 950, 100, 0, 3, 'e053b1c593708e56'),
    ('grid', 'python', True, False, 'edge'): (2, 1, 280, 100, 0, 1, 'c60437005bb7b4cf'),
    ('grid', 'numpy', True, False, 'edge'): (5, 24, 1489, 100, 0, 4, 'f6fa80bc6533a93b'),
    ('grid', 'interleaved', True, False, 'edge'): (4, 13, 950, 100, 0, 3, 'e053b1c593708e56'),
    ('grid', 'python', False, True, 'vertex'): (2, 1, 280, 100, 0, 1, '33b686a672abe047'),
    ('grid', 'numpy', False, True, 'vertex'): (5, 24, 2378, 100, 0, 4, '5cccf94e1b77469f'),
    ('grid', 'interleaved', False, True, 'vertex'): (4, 13, 1083, 100, 0, 3, '7e439abb0571cc7e'),
    ('grid', 'python', False, True, 'edge'): (2, 1, 280, 100, 0, 1, '33b686a672abe047'),
    ('grid', 'numpy', False, True, 'edge'): (5, 24, 2378, 100, 0, 4, '5cccf94e1b77469f'),
    ('grid', 'interleaved', False, True, 'edge'): (4, 13, 1083, 100, 0, 3, '7e439abb0571cc7e'),
    ('grid', 'python', False, False, 'vertex'): (2, 1, 280, 100, 0, 1, 'c4ad4048396b1961'),
    ('grid', 'numpy', False, False, 'vertex'): (5, 24, 1489, 100, 0, 4, '5bada34c211537bd'),
    ('grid', 'interleaved', False, False, 'vertex'): (4, 13, 950, 100, 0, 3, 'e7a3fc1dc49f9ca8'),
    ('grid', 'python', False, False, 'edge'): (2, 1, 280, 100, 0, 1, 'c4ad4048396b1961'),
    ('grid', 'numpy', False, False, 'edge'): (5, 24, 1489, 100, 0, 4, '5bada34c211537bd'),
    ('grid', 'interleaved', False, False, 'edge'): (4, 13, 950, 100, 0, 3, 'e7a3fc1dc49f9ca8'),
    ('chain', 'python', True, True, 'vertex'): (2, 36, 74, 1, 0, 1, '8f9808a7df6425c1'),
    ('chain', 'numpy', True, True, 'vertex'): (2, 40, 90, 1, 0, 1, '933f189e720549b8'),
    ('chain', 'interleaved', True, True, 'vertex'): (2, 38, 80, 1, 0, 1, 'ec098bd65ebd3e12'),
    ('chain', 'python', True, True, 'edge'): (2, 36, 74, 1, 0, 1, '8f9808a7df6425c1'),
    ('chain', 'numpy', True, True, 'edge'): (2, 40, 90, 1, 0, 1, '933f189e720549b8'),
    ('chain', 'interleaved', True, True, 'edge'): (2, 38, 80, 1, 0, 1, 'ec098bd65ebd3e12'),
    ('chain', 'python', True, False, 'vertex'): (2, 40, 79, 1, 0, 1, '252657148359a1e0'),
    ('chain', 'numpy', True, False, 'vertex'): (2, 40, 79, 1, 0, 1, '252657148359a1e0'),
    ('chain', 'interleaved', True, False, 'vertex'): (2, 40, 79, 1, 0, 1, '966dc0bd97d77d2a'),
    ('chain', 'python', True, False, 'edge'): (2, 40, 79, 1, 0, 1, '252657148359a1e0'),
    ('chain', 'numpy', True, False, 'edge'): (2, 40, 79, 1, 0, 1, '252657148359a1e0'),
    ('chain', 'interleaved', True, False, 'edge'): (2, 40, 79, 1, 0, 1, '966dc0bd97d77d2a'),
    ('chain', 'python', False, True, 'vertex'): (2, 36, 74, 1, 0, 1, '26f96e36ec8c6f46'),
    ('chain', 'numpy', False, True, 'vertex'): (2, 40, 90, 1, 0, 1, '2e0c6d0791a720ac'),
    ('chain', 'interleaved', False, True, 'vertex'): (2, 38, 80, 1, 0, 1, '6239debcc723f556'),
    ('chain', 'python', False, True, 'edge'): (2, 36, 74, 1, 0, 1, '26f96e36ec8c6f46'),
    ('chain', 'numpy', False, True, 'edge'): (2, 40, 90, 1, 0, 1, '2e0c6d0791a720ac'),
    ('chain', 'interleaved', False, True, 'edge'): (2, 38, 80, 1, 0, 1, '6239debcc723f556'),
    ('chain', 'python', False, False, 'vertex'): (2, 40, 79, 1, 0, 1, '878f9a6c258e7730'),
    ('chain', 'numpy', False, False, 'vertex'): (2, 40, 79, 1, 0, 1, '878f9a6c258e7730'),
    ('chain', 'interleaved', False, False, 'vertex'): (2, 40, 79, 1, 0, 1, '4f0b00e3d15dc157'),
    ('chain', 'python', False, False, 'edge'): (2, 40, 79, 1, 0, 1, '878f9a6c258e7730'),
    ('chain', 'numpy', False, False, 'edge'): (2, 40, 79, 1, 0, 1, '878f9a6c258e7730'),
    ('chain', 'interleaved', False, False, 'edge'): (2, 40, 79, 1, 0, 1, '4f0b00e3d15dc157'),
    ('isolated', 'python', True, True, 'vertex'): (5, 14, 644, 59, 40, 0, '9bc2920727d9b5a1'),
    ('isolated', 'numpy', True, True, 'vertex'): (6, 14, 764, 59, 76, 0, 'c14403531eed756e'),
    ('isolated', 'interleaved', True, True, 'vertex'): (4, 8, 425, 59, 28, 0, 'abb9a7fae59cb094'),
    ('isolated', 'python', True, True, 'edge'): (5, 13, 682, 59, 40, 0, 'ddb2ee7d95edd714'),
    ('isolated', 'numpy', True, True, 'edge'): (6, 14, 1015, 59, 76, 0, '8d8515405efa5712'),
    ('isolated', 'interleaved', True, True, 'edge'): (4, 8, 461, 59, 28, 0, 'fd403c4c697f14f7'),
    ('isolated', 'python', True, False, 'vertex'): (6, 17, 929, 59, 79, 0, '8e67e7961fe96df5'),
    ('isolated', 'numpy', True, False, 'vertex'): (6, 12, 1015, 59, 81, 0, '123e3c27be08ba2d'),
    ('isolated', 'interleaved', True, False, 'vertex'): (5, 13, 843, 59, 44, 0, '0a4940a97b808015'),
    ('isolated', 'python', True, False, 'edge'): (6, 17, 929, 59, 79, 0, '8e67e7961fe96df5'),
    ('isolated', 'numpy', True, False, 'edge'): (6, 12, 1015, 59, 81, 0, '123e3c27be08ba2d'),
    ('isolated', 'interleaved', True, False, 'edge'): (5, 13, 843, 59, 44, 0, '0a4940a97b808015'),
    ('isolated', 'python', False, True, 'vertex'): (5, 20, 1096, 59, 0, 4, '09d409b89e0dc7c1'),
    ('isolated', 'numpy', False, True, 'vertex'): (5, 17, 582, 59, 0, 4, '049ac6120979b81a'),
    ('isolated', 'interleaved', False, True, 'vertex'): (5, 17, 1180, 59, 0, 4, '2642a8959acd21c5'),
    ('isolated', 'python', False, True, 'edge'): (4, 12, 289, 59, 0, 3, '73639f5765dee4db'),
    ('isolated', 'numpy', False, True, 'edge'): (5, 17, 698, 59, 0, 4, '0d9d66d783121f67'),
    ('isolated', 'interleaved', False, True, 'edge'): (5, 18, 693, 59, 0, 4, '60c188b1aaeca0ec'),
    ('isolated', 'python', False, False, 'vertex'): (5, 23, 284, 59, 0, 4, '0084ee6ed55c7278'),
    ('isolated', 'numpy', False, False, 'vertex'): (6, 28, 589, 59, 0, 5, '00dd5b5bec2efbe4'),
    ('isolated', 'interleaved', False, False, 'vertex'): (5, 24, 424, 59, 0, 4, '788b45757a7e71e3'),
    ('isolated', 'python', False, False, 'edge'): (5, 23, 284, 59, 0, 4, '0084ee6ed55c7278'),
    ('isolated', 'numpy', False, False, 'edge'): (6, 28, 589, 59, 0, 5, '00dd5b5bec2efbe4'),
    ('isolated', 'interleaved', False, False, 'edge'): (5, 24, 424, 59, 0, 4, '788b45757a7e71e3'),
    ('paths', 'python', True, True, 'vertex'): (2, 2, 33, 6, 0, 1, '03fcd4225ce8e73f'),
    ('paths', 'python', True, True, 'edge'): (2, 2, 33, 6, 0, 1, '03fcd4225ce8e73f'),
    ('paths', 'python', True, False, 'vertex'): (2, 8, 60, 6, 0, 1, 'd6818ff6f59e7a7a'),
    ('paths', 'python', True, False, 'edge'): (2, 8, 60, 6, 0, 1, 'd6818ff6f59e7a7a'),
    ('paths', 'python', False, True, 'vertex'): (2, 2, 33, 6, 0, 1, 'd984f3e194214c34'),
    ('paths', 'python', False, True, 'edge'): (2, 2, 33, 6, 0, 1, 'd984f3e194214c34'),
    ('paths', 'python', False, False, 'vertex'): (2, 8, 60, 6, 0, 1, 'c9d34fd40d7d6b5b'),
    ('paths', 'python', False, False, 'edge'): (2, 8, 60, 6, 0, 1, 'c9d34fd40d7d6b5b'),
    ('paths', 'numpy', True, True, 'vertex'): (2, 8, 124, 6, 0, 1, 'ccded5b4e18754cb'),
    ('paths', 'numpy', True, True, 'edge'): (2, 8, 124, 6, 0, 1, 'ccded5b4e18754cb'),
    ('paths', 'numpy', True, False, 'vertex'): (2, 8, 60, 6, 0, 1, 'd6818ff6f59e7a7a'),
    ('paths', 'numpy', True, False, 'edge'): (2, 8, 60, 6, 0, 1, 'd6818ff6f59e7a7a'),
    ('paths', 'numpy', False, True, 'vertex'): (2, 8, 124, 6, 0, 1, '5a1cf3b640bcb683'),
    ('paths', 'numpy', False, True, 'edge'): (2, 8, 124, 6, 0, 1, '5a1cf3b640bcb683'),
    ('paths', 'numpy', False, False, 'vertex'): (2, 8, 60, 6, 0, 1, 'c9d34fd40d7d6b5b'),
    ('paths', 'numpy', False, False, 'edge'): (2, 8, 60, 6, 0, 1, 'c9d34fd40d7d6b5b'),
    ('paths', 'interleaved', True, True, 'vertex'): (2, 6, 62, 6, 0, 1, 'b17473ffdfb7e25b'),
    ('paths', 'interleaved', True, True, 'edge'): (2, 6, 62, 6, 0, 1, 'b17473ffdfb7e25b'),
    ('paths', 'interleaved', True, False, 'vertex'): (2, 8, 60, 6, 0, 1, 'd9a1ce904e3c7713'),
    ('paths', 'interleaved', True, False, 'edge'): (2, 8, 60, 6, 0, 1, 'd9a1ce904e3c7713'),
    ('paths', 'interleaved', False, True, 'vertex'): (2, 6, 62, 6, 0, 1, '7b336b2254cb8e9b'),
    ('paths', 'interleaved', False, True, 'edge'): (2, 6, 62, 6, 0, 1, '7b336b2254cb8e9b'),
    ('paths', 'interleaved', False, False, 'vertex'): (2, 8, 60, 6, 0, 1, '1d183645e99ffd74'),
    ('paths', 'interleaved', False, False, 'edge'): (2, 8, 60, 6, 0, 1, '1d183645e99ffd74'),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.mark.parametrize("engine", ["python", "numpy", "interleaved"])
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_engine_matches_recorded_trajectory(graphs, graph_name, engine):
    graph, initial = graphs[graph_name]
    for flags in FLAGS:
        result = run_engine(engine, graph, initial, *flags)
        got = record(result, frontiers=engine != "interleaved")
        assert got == GOLDEN[(graph_name, engine, *flags)], (
            graph_name,
            engine,
            flags,
        )
