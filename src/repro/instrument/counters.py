"""Algorithm-independent search counters.

The paper compares matching algorithms on three properties (Section II-D,
Fig. 1): (a) number of traversed edges, (b) number of phases, and (c) average
augmenting path length. Every matching algorithm in this package fills in a
:class:`Counters` instance with exactly those quantities.

An edge is *traversed* each time an adjacency entry is examined, matching the
paper's MTEPS definition ("the number of edges traversed", not ``m``).
Augmenting path length is counted in edges (always odd).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class Counters:
    """Mutable counter set shared by all matching algorithms."""

    edges_traversed: int = 0
    """Adjacency entries the run actually read. Two runs that build the
    same forest from different sides (the numpy engine's frontier-side
    first bottom-up level against Algorithm 6's row scan) report
    different counts."""
    phases: int = 0
    augmentations: int = 0
    total_augmenting_path_length: int = 0
    path_lengths: list[int] = field(default_factory=list)
    bfs_levels: int = 0
    grafts: int = 0
    """Number of Y vertices re-attached by the tree-grafting step."""
    tree_rebuilds: int = 0
    """Number of phases that fell back to rebuilding active trees from scratch."""
    topdown_steps: int = 0
    bottomup_steps: int = 0

    def record_path(self, length_edges: int) -> None:
        """Record one augmentation along a path of ``length_edges`` edges."""
        if length_edges < 1 or length_edges % 2 == 0:
            raise ValueError(f"augmenting path length must be odd and >= 1, got {length_edges}")
        self.augmentations += 1
        self.total_augmenting_path_length += length_edges
        self.path_lengths.append(length_edges)

    def record_paths(self, lengths: Sequence[int] | np.ndarray) -> None:
        """Record a batch of augmentations (one call per phase, not per path)."""
        arr = np.asarray(lengths, dtype=np.int64)
        invalid = (arr < 1) | (arr % 2 == 0)
        if invalid.any():
            bad = arr[invalid][:5].tolist()
            raise ValueError(f"augmenting path lengths must be odd and >= 1, got {bad}")
        self.augmentations += int(arr.size)
        self.total_augmenting_path_length += int(arr.sum())
        self.path_lengths.extend(arr.tolist())

    @property
    def avg_augmenting_path_length(self) -> float:
        """Mean augmenting path length in edges (0.0 if no augmentations)."""
        if self.augmentations == 0:
            return 0.0
        return self.total_augmenting_path_length / self.augmentations

    @property
    def max_augmenting_path_length(self) -> int:
        return max(self.path_lengths, default=0)

    def merge(self, other: "Counters") -> "Counters":
        """Accumulate ``other`` into ``self`` (used when chaining init + max)."""
        self.edges_traversed += other.edges_traversed
        self.phases += other.phases
        self.augmentations += other.augmentations
        self.total_augmenting_path_length += other.total_augmenting_path_length
        self.path_lengths.extend(other.path_lengths)
        self.bfs_levels += other.bfs_levels
        self.grafts += other.grafts
        self.tree_rebuilds += other.tree_rebuilds
        self.topdown_steps += other.topdown_steps
        self.bottomup_steps += other.bottomup_steps
        return self
