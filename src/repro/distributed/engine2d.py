"""Distributed-memory MS-BFS-Graft with 2D (grid) decomposition.

Same forest, phase loop and BSP semantics as :mod:`repro.distributed.engine`
(:class:`~repro.distributed.engine.BSPForest` under
:func:`~repro.core.engine_loop.run_phases`), but edges live on an
``r x c`` rank grid (tile ``(i, j)`` = edges between X-block ``i`` and
Y-block ``j``) and the levels' collectives are scoped to grid rows and
columns:

* **top-down** — frontier segments broadcast along grid *rows* (c-1
  copies), tile-local scans, claims reduced along grid *columns* to the Y
  owners;
* **bottom-up / grafting** — active-X bitmaps broadcast along grid rows
  (c-1 copies of one block each, vs p-1 in 1D — the communication-avoiding
  win), tile-local sub-row scans (a tile cannot early-break on another
  tile's hit: the known extra-work trade of 2D), candidates reduced along
  columns;
* **augmentation / statistics** — identical to 1D (walker messages between
  vertex owners; local sweeps).

Hub vertices also parallelise better: a high-degree row's adjacency is
split over ``c`` tiles, so its scan no longer serialises on one rank.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import _gather_segments
from repro.core.options import GraftOptions
from repro.distributed.engine import WORD, BSPForest, DistributedResult, run_bsp
from repro.distributed.grid import Grid2D
from repro.graph.csr import BipartiteCSR
from repro.matching.base import Matching


class Forest2D(BSPForest):
    """2D routing: tiles scan, grid rows broadcast, grid columns reduce."""

    def __init__(self, graph: BipartiteCSR, matching: Matching, grid: Grid2D) -> None:
        super().__init__(graph, matching, grid)
        ranks = self.ranks
        self.grid = grid
        self.xblock_of = grid.x_block(np.arange(graph.n_x, dtype=np.int64))
        self.yblock_of = grid.y_block(np.arange(graph.n_y, dtype=np.int64))
        # Only the owners of a vertex block hold its state (1D's charge).
        self.statistics_compute = self.per_rank(self.owner_x) + self.per_rank(self.owner_y)
        self.rebuild_compute = self.per_rank(self.owner_y)
        # Grid row i's broadcasts leave from the owner of X-block i.
        self.row_root = np.array([grid.rank_of(i, i % grid.cols) for i in range(grid.rows)])
        self.bitmap_compute = np.full(ranks, graph.n_x / (64.0 * grid.cols))
        self.bitmap_bytes = self.per_rank(
            self.row_root, weights=(grid.cols - 1) * np.diff(grid.x_bounds) / 8.0
        )

    def _tile(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rank of the tile holding edge ``(x, y)``."""
        return self.xblock_of[x] * self.grid.cols + self.yblock_of[y]

    def topdown(self, frontier: np.ndarray, label: str = "topdown"):
        grid = self.grid
        frontier = frontier[self.active_x_mask()[frontier]]
        # --- superstep A: frontier segments broadcast along grid rows --- #
        seg_sizes = np.bincount(self.xblock_of[frontier], minlength=grid.rows)
        self.log.record(
            f"{label}-fbcast",
            np.zeros(self.ranks),
            self.per_rank(self.row_root, weights=(grid.cols - 1) * seg_sizes * WORD),
        )

        # --- superstep B: tile scans + claim reduction along columns ---- #
        src, dst, _ = _gather_segments(self.graph.x_ptr, self.graph.x_adj, np.sort(frontier))
        compute = self.per_rank(self._tile(src, dst))
        # One claim per (tile, y): first unvisited target per y per tile.
        keep = self.visited[dst] == 0
        src_u, dst_u = src[keep], dst[keep]
        # Group key (y, x_block); edges are sorted by x (hence x_block), so
        # first occurrence = lowest x in that tile, and the claims arrive
        # ordered by y then x_block: the owners keep the lowest-block claim.
        key = dst_u * np.int64(grid.rows) + self.xblock_of[src_u]
        _, first = np.unique(key, return_index=True)
        claim_y, claim_x = dst_u[first], src_u[first]
        self.log.record(
            f"{label}-claims",
            compute,
            self.send_bytes(self._tile(claim_x, claim_y), self.owner_y[claim_y], 3),
        )
        activations, _ = self._claim_at_y_owners(claim_y, claim_x, "activate")
        return activations, int(dst.size) + int(claim_y.size)

    def bottomup_level(self, rows: np.ndarray, label: str):
        # --- superstep A: X bitmaps broadcast along grid rows ----------- #
        active = self.active_x_mask()
        self.log.record(f"{label}-bitmap", self.bitmap_compute, self.bitmap_bytes)

        # --- superstep B: tile sub-row scans + candidate reduction ------ #
        src, dst, _ = _gather_segments(self.graph.y_ptr, self.graph.y_adj, rows)  # src=y, dst=x
        compute = self.per_rank(self._tile(dst, src))
        hit = active[dst]
        src_h, dst_h = src[hit], dst[hit]
        # First active x per (y, x_block): adjacency is x-sorted. The Y
        # owner keeps the lowest-block candidate per y.
        key = src_h * np.int64(self.grid.rows) + self.xblock_of[dst_h]
        _, first = np.unique(key, return_index=True)
        cand_y, cand_x = src_h[first], dst_h[first]
        self.log.record(
            f"{label}-candidates",
            compute,
            self.send_bytes(self._tile(cand_x, cand_y), self.owner_y[cand_y], 2),
        )
        activations, _ = self._claim_at_y_owners(cand_y, cand_x, "activate")
        return activations, int(dst.size)


def distributed_ms_bfs_graft_2d(
    graph: BipartiteCSR,
    initial: Matching | None = None,
    *,
    ranks: int = 4,
    grid: Grid2D | None = None,
    alpha: float = 5.0,
    grafting: bool = True,
    direction_optimizing: bool = True,
    options: Optional[GraftOptions] = None,
) -> DistributedResult:
    """Maximum matching with 2D-decomposed distributed MS-BFS-Graft.

    Keywords and ``options`` as in
    :func:`~repro.distributed.engine.distributed_ms_bfs_graft`; ``grid``
    replaces the most-square grid of ``ranks``.
    """
    if options is None:
        options = GraftOptions(
            alpha=alpha, grafting=grafting, direction_optimizing=direction_optimizing
        )
    grid = grid or Grid2D.square(graph, ranks)
    return run_bsp(
        "bsp-2d", graph, initial, options, lambda matching: Forest2D(graph, matching, grid)
    )
