import numpy as np
import pytest

from repro.errors import CacheCorruptionError, GraphFormatError
from repro.graph.generators import random_bipartite, rmat_bipartite
from repro.graph.serialize import load_graph, read_matching, save_graph, write_matching
from repro.matching.base import Matching
from repro.matching.greedy import greedy_matching


class TestGraphRoundtrip:
    def test_roundtrip(self, tmp_path):
        g = rmat_bipartite(scale=7, edge_factor=4, seed=0)
        path = tmp_path / "g.npz"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_loaded_graph_validates(self, tmp_path):
        g = random_bipartite(20, 15, 60, seed=1)
        path = tmp_path / "g.npz"
        save_graph(g, path)
        load_graph(path)._validate()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(path, format=np.array("repro-matching"), version=np.array(1))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_rejects_arbitrary_npz(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(GraphFormatError):
            load_graph(path)


class TestMatchingRoundtrip:
    def test_roundtrip(self, tmp_path):
        g = random_bipartite(25, 25, 100, seed=2)
        m = greedy_matching(g).matching
        path = tmp_path / "m.npy"
        write_matching(path, m)
        assert read_matching(path, 25, 25) == m

    def test_empty_matching(self, tmp_path):
        path = tmp_path / "m.npy"
        write_matching(path, Matching.empty(4, 7))
        loaded = read_matching(path, 4, 7)
        assert loaded.n_x == 4 and loaded.n_y == 7
        assert loaded.cardinality == 0

    def test_rejects_graph_file(self, tmp_path):
        g = random_bipartite(5, 5, 10, seed=3)
        path = tmp_path / "g.npz"
        save_graph(g, path)
        with pytest.raises(CacheCorruptionError):
            read_matching(path, 5, 5)

    def test_rejects_edited_mates(self, tmp_path):
        m = greedy_matching(random_bipartite(25, 25, 100, seed=2)).matching
        path = tmp_path / "m.npy"
        write_matching(path, m)
        stored = np.load(path)
        x0, x1 = np.flatnonzero(stored[:25] >= 0)[:2]
        stored[[x0, x1]] = stored[[x1, x0]]
        stored[25 + stored[[x0, x1]]] = [x0, x1]  # still consistent mates
        np.save(path, stored)
        with pytest.raises(CacheCorruptionError, match="CRC"):
            read_matching(path, 25, 25)


class TestAtomicWrites:
    def test_no_temp_file_left_behind(self, tmp_path):
        g = random_bipartite(10, 10, 30, seed=5)
        path = tmp_path / "g.npz"
        save_graph(g, path)
        assert [p.name for p in tmp_path.iterdir()] == ["g.npz"]

    def test_overwrite_keeps_readable_file(self, tmp_path):
        path = tmp_path / "m.npy"
        m1 = greedy_matching(random_bipartite(8, 8, 20, seed=6)).matching
        write_matching(path, m1)
        m2 = greedy_matching(random_bipartite(8, 8, 20, seed=7)).matching
        write_matching(path, m2)
        assert read_matching(path, 8, 8) == m2
        assert [p.name for p in tmp_path.iterdir()] == ["m.npy"]

    def test_suffix_appended_like_numpy(self, tmp_path):
        g = random_bipartite(5, 5, 12, seed=8)
        save_graph(g, tmp_path / "graph")
        assert load_graph(tmp_path / "graph.npz") == g
