import pytest

from repro.bench.suite import (
    CLASSES,
    NETWORKS,
    SCALE_FREE,
    build_suite,
    get_suite_graph,
    group_of,
    suite_specs,
)
from repro.errors import BenchmarkError


class TestSuiteStructure:
    def test_eleven_graphs(self):
        assert len(suite_specs()) == 11

    def test_three_classes_covered(self):
        suite = build_suite(scale=0.05)
        groups = group_of(suite)
        assert set(groups) == set(CLASSES)
        assert all(len(v) >= 3 for v in groups.values())

    def test_get_by_name(self):
        sg = get_suite_graph("rmat", scale=0.05)
        assert sg.group == SCALE_FREE
        assert sg.graph.n_x == sg.graph.n_y

    def test_unknown_name(self):
        with pytest.raises(BenchmarkError):
            get_suite_graph("nope")

    def test_filter_by_group(self):
        suite = build_suite(scale=0.05, groups=(NETWORKS,))
        assert all(sg.group == NETWORKS for sg in suite)

    def test_filter_by_name(self):
        suite = build_suite(scale=0.05, names=["kkt-like"])
        assert len(suite) == 1

    def test_deterministic(self):
        a = get_suite_graph("wikipedia-like", scale=0.05).graph
        b = get_suite_graph("wikipedia-like", scale=0.05).graph
        assert a == b

    def test_scale_grows_graphs(self):
        small = get_suite_graph("road-like", scale=0.05).graph
        large = get_suite_graph("road-like", scale=0.1).graph
        assert large.num_vertices > small.num_vertices


class TestClassBands:
    """The suite must land in the paper's Table II matching-number bands."""

    @pytest.mark.parametrize("name", ["kkt-like", "hugetrace-like", "road-like", "delaunay-like"])
    def test_scientific_near_perfect(self, name):
        from repro.core.driver import ms_bfs_graft

        sg = get_suite_graph(name, scale=0.1)
        result = ms_bfs_graft(sg.graph, emit_trace=False)
        assert result.matching.matching_fraction() > 0.95

    @pytest.mark.parametrize("name", ["wikipedia-like", "webgoogle-like", "wbedu-like"])
    def test_networks_low_matching_number(self, name):
        from repro.core.driver import ms_bfs_graft

        sg = get_suite_graph(name, scale=0.1)
        result = ms_bfs_graft(sg.graph, emit_trace=False)
        assert result.matching.matching_fraction() < 0.85

    @pytest.mark.parametrize("name", ["rmat", "citpatents-like", "amazon-like", "copapers-like"])
    def test_scale_free_skewed(self, name):
        from repro.graph.properties import analyze

        sg = get_suite_graph(name, scale=0.1)
        assert analyze(sg.graph).degree_skew_x > 1.5
