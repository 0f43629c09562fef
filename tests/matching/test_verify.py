import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graph.builder import from_edges
from repro.graph.csr import BipartiteCSR
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

    # Both graphs: a matching one short of maximum, and a claimed cover of
    # size |M| that misses exactly one edge, on a row outside cover_x.
    # "under": x0, x1 (outside cover_x) hold 3 of 13 entries; "over": every
    # row but x4 is outside cover_x, so the check reads most entries.
    MISSES_ONE_EDGE = {
        "under": (
            [[0], [0, 1], list(range(2, 13))], 13,
            [(0, 0), (2, 2)], [0],
        ),
        "over": (
            [[0], [1], [2], [3], [0, 1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 2, 3]], 5,
            [(0, 0), (1, 1), (2, 2), (3, 3)], [0, 1, 2, 3],
        ),
    }

    @pytest.mark.parametrize("case", sorted(MISSES_ONE_EDGE))
    def test_cover_missing_one_edge_falls_back(self, case, sweeps):
        rows, n_y, pairs, cover = self.MISSES_ONE_EDGE[case]
        g = from_edges(len(rows), n_y, [(x, y) for x, r in enumerate(rows) for y in r])
        m = Matching.from_pairs(g.n_x, n_y, pairs)
        cover_y = np.isin(np.arange(n_y), cover)
        assert len(_uncovered_edges(g, m, cover_y)) == 1
        self.rejects(g, m, cover_y)
        assert len(sweeps) == 1


def _raw_csr(n_x, n_y, rows):
    """A ``validate=False`` CSR with the X rows exactly as given (any order,
    duplicates kept), as a cache hit builds it."""
    x_ptr = np.cumsum([0] + [len(r) for r in rows])
    x_adj = np.array([y for r in rows for y in r], dtype=np.int64)
    cols = [[x for x, r in enumerate(rows) for y in r if y == col] for col in range(n_y)]
    y_ptr = np.cumsum([0] + [len(c) for c in cols])
    y_adj = np.array([x for c in cols for x in c], dtype=np.int64)
    return BipartiteCSR(n_x, n_y, x_ptr, x_adj, y_ptr, y_adj, validate=False)


def _engine_maximum(graph):
    from repro.core.driver import ms_bfs_graft

    return ms_bfs_graft(graph, emit_trace=False).matching


def _uncovered_edges(graph, m, cover_y):
    """Edges with neither endpoint in the completed cover, by brute force."""
    cover_x = (m.mate_x != -1) & ~np.isin(np.arange(graph.n_x), m.mate_y[cover_y])
    return [(x, y) for x, y in graph.edges() if not cover_x[x] and not cover_y[y]]


class TestSoundness:
    """Mutations the certificate must reject, whatever the CSR rows look like.

    Validity marks each matched pair found in its own X row and never counts
    hits, and the cover check reads every entry of the rows outside
    ``cover_x``, so neither rests on rows being ascending or free of
    duplicates.
    """

    def test_forged_pair_rejected(self):
        g = random_bipartite(40, 40, 90, seed=3)
        maximum = _engine_maximum(g)
        x, y = maximum.pairs()[0]
        free_y = [int(v) for v in maximum.unmatched_y() if not g.has_edge(x, int(v))]
        forged = maximum.copy()  # keeps the engine's cover
        forged.mate_y[y] = -1
        forged.mate_x[x] = free_y[0]
        forged.mate_y[free_y[0]] = x
        assert forged.is_consistent() and forged.cardinality == maximum.cardinality
        assert not is_valid_matching(g, forged)
        with pytest.raises(VerificationError, match="not a graph edge"):
            verify_maximum(g, forged)

    def test_duplicate_entry_never_masks_a_forged_pair(self):
        # x0's row holds y1 twice; x1's row is [y2]. Counting hits would see
        # two for |M| = 2 and accept the forged pair (x1, y0).
        g = _raw_csr(2, 3, [[1, 1], [2]])
        m = Matching.from_pairs(2, 3, [(0, 1), (1, 0)])
        assert not is_valid_matching(g, m)
        for cover in (None, np.ones(3, dtype=bool), np.array([False, True, False])):
            m.cover_y = cover
            with pytest.raises(VerificationError, match="not a graph edge"):
                verify_maximum(g, m)

    def test_unsorted_rows_with_duplicates_certify(self):
        g = random_bipartite(60, 50, 200, seed=8)
        rows = [list(g.neighbors_x(x))[::-1] * 2 for x in range(g.n_x)]
        raw = _raw_csr(g.n_x, g.n_y, rows)
        maximum = _engine_maximum(g)
        assert verify_maximum(raw, maximum) == maximum.cardinality
        short = maximum.copy()
        short.unmatch(maximum.pairs()[0][0])
        short.cover_y = maximum.cover_y
        with pytest.raises(VerificationError, match="augmenting path"):
            verify_maximum(raw, short)

    def test_row_pointer_must_partition_adjacency(self):
        g = _raw_csr(2, 2, [[0], [1]])
        bad = BipartiteCSR(2, 2, np.array([0, 1, 1]), g.x_adj, g.y_ptr, g.y_adj, validate=False)
        with pytest.raises(VerificationError, match="row pointer"):
            verify_maximum(bad, Matching.from_pairs(2, 2, [(0, 0)]))
