import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graph.builder import from_edges
from repro.graph.generators import chain_graph, complete_bipartite, random_bipartite
from repro.matching.base import Matching
from repro.matching.verify import (
    assert_valid_matching,
    is_maximal_matching,
    is_maximum_matching,
    is_valid_matching,
    koenig_vertex_cover,
    verify_maximum,
)


@pytest.fixture
def path3():
    # x0 - y0 - x1 - y1: a path with maximum matching 2.
    return from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])


class TestValidity:
    def test_valid(self, path3):
        assert is_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 0), (1, 1)]))

    def test_non_edge_invalid(self, path3):
        assert not is_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))

    def test_size_mismatch_invalid(self, path3):
        assert not is_valid_matching(path3, Matching.empty(3, 3))

    def test_inconsistent_mates_invalid(self, path3):
        m = Matching.from_pairs(2, 2, [(0, 0)])
        m.mate_y[0] = 1
        assert not is_valid_matching(path3, m)

    def test_assert_raises(self, path3):
        with pytest.raises(VerificationError):
            assert_valid_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))


class TestMaximality:
    def test_empty_not_maximal(self, path3):
        assert not is_maximal_matching(path3, Matching.empty(2, 2))

    def test_greedy_mistake_is_maximal_not_maximum(self, path3):
        m = Matching.from_pairs(2, 2, [(1, 0)])  # blocks both other edges
        assert is_maximal_matching(path3, m)
        assert not is_maximum_matching(path3, m)

    def test_maximum_is_maximal(self, path3):
        m = Matching.from_pairs(2, 2, [(0, 0), (1, 1)])
        assert is_maximal_matching(path3, m)
        assert is_maximum_matching(path3, m)


class TestMaximum:
    def test_chain_maximum(self):
        g = chain_graph(3)
        m = Matching.from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert is_maximum_matching(g, m)

    def test_chain_suboptimal_detected(self):
        g = chain_graph(3)
        # Match the "crossing" edges, leaving x0 and y2 free but connected
        # by an augmenting path.
        m = Matching.from_pairs(3, 3, [(1, 0), (2, 1)])
        assert not is_maximum_matching(g, m)

    def test_invalid_never_maximum(self, path3):
        assert not is_maximum_matching(path3, Matching.from_pairs(2, 2, [(0, 1)]))


class TestKoenig:
    def test_cover_size_equals_cardinality(self):
        g = random_bipartite(25, 20, 100, seed=0)
        from repro.core.driver import ms_bfs_graft

        result = ms_bfs_graft(g, emit_trace=False)
        cx, cy = koenig_vertex_cover(g, result.matching)
        assert cx.size + cy.size == result.cardinality

    def test_rejects_non_maximum(self, path3):
        with pytest.raises(VerificationError):
            koenig_vertex_cover(path3, Matching.from_pairs(2, 2, [(1, 0)]))

    def test_complete_graph_cover(self):
        g = complete_bipartite(3, 5)
        m = Matching.from_pairs(3, 5, [(0, 0), (1, 1), (2, 2)])
        cx, cy = koenig_vertex_cover(g, m)
        assert cx.size + cy.size == 3


class TestVerifyMaximum:
    def test_full_certificate(self):
        g = random_bipartite(30, 30, 120, seed=1)
        from repro.core.driver import ms_bfs_graft

        result = ms_bfs_graft(g, emit_trace=False)
        assert verify_maximum(g, result.matching) == result.cardinality

    def test_rejects_suboptimal(self, path3):
        with pytest.raises(VerificationError):
            verify_maximum(path3, Matching.from_pairs(2, 2, [(1, 0)]))

    def test_rejects_invalid(self, path3):
        with pytest.raises(VerificationError):
            verify_maximum(path3, Matching.from_pairs(2, 2, [(0, 1)]))

    def test_empty_graph(self):
        g = from_edges(2, 2, [])
        assert verify_maximum(g, Matching.empty(2, 2)) == 0


class TestSuppliedCover:
    """``verify_maximum`` checks a matching's own ``cover_y`` before sweeping.

    A supplied cover is a claim, never trusted: on a non-maximum matching no
    cover of size |M| exists, so every cover below must send the verifier to
    its sweep, which finds the augmenting path and raises.
    """

    @pytest.fixture
    def graph(self):
        return random_bipartite(40, 40, 90, seed=3)

    @pytest.fixture
    def maximum(self, graph):
        from repro.core.driver import ms_bfs_graft

        m = ms_bfs_graft(graph, emit_trace=False).matching
        assert m.cover_y is not None and m.cover_y.any()
        return m

    @pytest.fixture
    def short(self, maximum):
        """``maximum`` minus one matched pair: valid, one short of maximum."""
        m = Matching(maximum.n_x, maximum.n_y, maximum.mate_x.copy(), maximum.mate_y.copy())
        m.unmatch(int(maximum.mate_y[np.flatnonzero(maximum.cover_y)[0]]))
        return m

    @pytest.fixture
    def sweeps(self, monkeypatch):
        from repro.matching import verify

        calls = []
        sweep = verify.alternating_reach

        def counting(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(verify, "alternating_reach", counting)
        return calls

    @staticmethod
    def rejects(graph, m, cover):
        m.cover_y = cover
        with pytest.raises(VerificationError, match="augmenting path"):
            verify_maximum(graph, m)

    def test_engine_cover_certifies_without_sweep(self, graph, maximum, sweeps):
        assert verify_maximum(graph, maximum) == maximum.cardinality
        assert sweeps == []

    def test_flipped_bits_never_certify(self, graph, maximum, short):
        for y in range(graph.n_y):
            flipped = maximum.cover_y.copy()
            flipped[y] = not flipped[y]
            self.rejects(graph, short, flipped)
        self.rejects(graph, short, maximum.cover_y.copy())

    def test_dropped_cover_vertex_falls_back(self, graph, maximum, sweeps):
        # The parent edge of a dropped cover-Y joins two uncovered vertices,
        # so the cover check must fail and the sweep re-certifies.
        for n, y in enumerate(np.flatnonzero(maximum.cover_y), start=1):
            m = maximum.copy()
            m.cover_y = maximum.cover_y.copy()
            m.cover_y[y] = False
            assert verify_maximum(graph, m) == maximum.cardinality
            assert len(sweeps) == n

    def test_unmatched_y_in_cover_falls_back(self, graph, maximum, short, sweeps):
        free = np.flatnonzero(maximum.mate_y == -1)
        assert free.size
        m = maximum.copy()
        m.cover_y = maximum.cover_y | (np.arange(graph.n_y) == free[0])
        assert verify_maximum(graph, m) == maximum.cardinality
        assert len(sweeps) == 1
        self.rejects(graph, short, m.cover_y)

    def test_all_true_cover_on_non_maximum_raises(self, graph, short):
        self.rejects(graph, short, np.ones(graph.n_y, dtype=bool))

    @pytest.mark.parametrize("reshape", [
        lambda c: c[:-1],
        lambda c: np.concatenate([c, [True]]),
        lambda c: c.astype(np.uint8),
        lambda c: c.astype(np.int64),
        lambda c: c.tolist(),
        lambda c: np.flatnonzero(c),
    ])
    def test_malformed_cover_falls_back(self, graph, maximum, short, sweeps, reshape):
        m = maximum.copy()
        m.cover_y = reshape(maximum.cover_y)
        assert verify_maximum(graph, m) == maximum.cardinality
        assert len(sweeps) == 1
        self.rejects(graph, short, reshape(np.ones(graph.n_y, dtype=bool)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_non_boolean_mask_never_certifies(self, dtype):
        # Read as indices, an all-ones mask names only y1, which is matched
        # here, and every edge would look covered.
        g = chain_graph(3)
        self.rejects(g, Matching.from_pairs(3, 3, [(1, 0), (2, 1)]), np.ones(3, dtype=dtype))

    def test_cover_from_another_graph_never_certifies(self, graph, short):
        from repro.core.driver import ms_bfs_graft

        for seed in range(10):
            other = random_bipartite(graph.n_x, graph.n_y, 90, seed=100 + seed)
            self.rejects(graph, short, ms_bfs_graft(other, emit_trace=False).matching.cover_y)

    def test_cover_from_another_matching_never_certifies(self, graph, maximum):
        pairs = maximum.pairs()
        for k in range(len(pairs)):
            prefix = Matching.from_pairs(graph.n_x, graph.n_y, pairs[:k])
            self.rejects(graph, prefix, maximum.cover_y)

    def test_mutators_clear_the_cover_and_copy_keeps_it(self, maximum):
        (x0, y0), (x1, y1) = maximum.pairs()[:2]
        assert maximum.copy().cover_y is maximum.cover_y
        swapped = maximum.copy()
        swapped.augment_pairs([(x0, y1), (x1, y0)])
        assert swapped.cover_y is None
        unmatched = maximum.copy()
        unmatched.unmatch(x0)
        assert unmatched.cover_y is None
        unmatched.cover_y = maximum.cover_y
        unmatched.match(x0, y0)
        assert unmatched.cover_y is None

    def test_stale_cover_after_direct_writes_never_certifies(self, graph, maximum):
        # Writing the mate arrays directly bypasses the mutators, so the
        # copied cover goes stale on a matching one pair short.
        stale = maximum.copy()
        x, y = stale.pairs()[0]
        stale.mate_x[x] = stale.mate_y[y] = -1
        assert stale.cover_y is maximum.cover_y
        with pytest.raises(VerificationError, match="augmenting path"):
            verify_maximum(graph, stale)

    def test_constructors_carry_no_cover(self, graph, maximum):
        from repro.matching.base import init_matching

        assert Matching(maximum.n_x, maximum.n_y, maximum.mate_x, maximum.mate_y).cover_y is None
        assert Matching.from_pairs(maximum.n_x, maximum.n_y, maximum.pairs()).cover_y is None
        assert Matching.empty(maximum.n_x, maximum.n_y).cover_y is None
        # An algorithm's working copy drops the caller's cover before it
        # writes the mate arrays.
        assert init_matching(graph, maximum).cover_y is None

    def test_random_covers_never_certify(self, graph, maximum, short):
        rng = np.random.default_rng(0)
        for density in (0.1, 0.5, 0.9):
            for _ in range(50):
                self.rejects(graph, short, rng.random(graph.n_y) < density)
