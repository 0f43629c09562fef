"""The BSP engines reproduce the closure-era engines' runs exactly.

``bsp_parity_golden.json.gz`` was recorded with the engines that kept their
own phase loops, before both moved onto ``run_phases``. Each case holds the
mate arrays, ``dataclasses.asdict(counters)`` and the superstep log as
``(label, per-rank compute, per-rank bytes)``.

Options: top-down only, with grafting on and off, on every case; the
defaults only where the old run never met the condition under which
``run_phases`` grafts top-down (``active_x < renewable_y``). The old
engines always grafted bottom-up, so those runs legitimately differ; the
golden flags them (``topdown_graft``) and they are checked for a maximum
matching of the same size instead.
"""

import dataclasses
import gzip
import json
from pathlib import Path

import pytest

from tests.conftest import SMALL_GRAPHS

from repro.core.options import GraftOptions
from repro.distributed import Grid2D, distributed_ms_bfs_graft, distributed_ms_bfs_graft_2d
from repro.graph.generators import surplus_core_bipartite
from repro.matching.greedy import greedy_matching
from repro.matching.verify import verify_maximum

GOLDEN = Path(__file__).with_name("bsp_parity_golden.json.gz")
OPTIONS = {
    "td-graft": GraftOptions(direction_optimizing=False, grafting=True),
    "td-nograft": GraftOptions(direction_optimizing=False, grafting=False),
    "defaults": GraftOptions(),
}
BIG = "surplus-500x300-greedy"


def _cases():
    with gzip.open(GOLDEN, "rt") as f:
        return json.load(f)["cases"]


CASES = _cases()


def _case_id(case):
    shape = "x".join(map(str, case["grid"])) if case["grid"] else f"r{case['ranks']}"
    return f"{case['graph']}-{case['decomposition']}-{shape}-{case['options']}"


@pytest.fixture(scope="module")
def graphs():
    big = surplus_core_bipartite(500, 300, seed=7)
    out = {name: (g, None) for name, g in SMALL_GRAPHS.items()}
    out[BIG] = (big, greedy_matching(big, shuffle=True, seed=1).matching)
    return out


def _run(case, graphs):
    graph, init = graphs[case["graph"]]
    options = OPTIONS[case["options"]]
    if case["decomposition"] == "1d":
        return graph, distributed_ms_bfs_graft(graph, init, ranks=case["ranks"], options=options)
    grid = Grid2D(graph, *case["grid"]) if case["grid"] else None
    return graph, distributed_ms_bfs_graft_2d(
        graph, init, ranks=case["ranks"], grid=grid, options=options
    )


def test_golden_covers_the_required_runs():
    ids = {_case_id(c) for c in CASES}
    assert len(ids) == len(CASES) == 13 * 7 * 3
    exact_defaults = [c for c in CASES if c["options"] == "defaults" and not c["topdown_graft"]]
    # Enough default runs stay exact to pin the default path, the big
    # greedy-started graph among them.
    assert len(exact_defaults) >= 40
    assert any(c["graph"] == BIG for c in exact_defaults)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_parity_with_recorded_run(case, graphs):
    graph, result = _run(case, graphs)
    if case["topdown_graft"]:
        verify_maximum(graph, result.matching)
        assert result.cardinality == sum(1 for m in case["mate_x"] if m >= 0)
        return
    assert result.matching.mate_x.tolist() == case["mate_x"]
    assert result.matching.mate_y.tolist() == case["mate_y"]
    assert dataclasses.asdict(result.counters) == case["counters"]
    log = [[s.label, s.compute.tolist(), s.bytes_out.tolist()] for s in result.log.steps]
    assert log == case["log"]
