"""Fixture: a certificate checker that reuses engine code (REP009 x3)."""

import repro.parallel.shared
from repro.core.forest import ForestState
from repro.graph.csr import BipartiteCSR


def reach_from_engine(graph: BipartiteCSR):
    from repro import distributed

    return ForestState.for_graph(graph), distributed, repro.parallel.shared
