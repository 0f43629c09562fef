"""Owner-side superstep-boundary commits for the BSP engines.

In a real BSP run, shared state changes only at superstep boundaries:
each rank drains its inbox and applies the winning updates to the blocks
it owns. The simulated engines (:mod:`repro.distributed.engine`,
:mod:`repro.distributed.engine2d`) keep state in global arrays for speed,
which used to mean their phase closures wrote those arrays with plain
subscript assignments — indistinguishable, to both the reader and the
static analyzer, from an unsynchronised racey write.

This module gives those owner-side applications a name and a marker.
Every helper is decorated :func:`superstep_commit`, which is an identity
function at runtime but a contract marker for the effect analyzer
(:mod:`repro.analysis.effects`): a call to a commit helper counts as an
*atomic* write to the array arguments, the BSP analogue of a CAS claim —
first-writer-wins resolution has already happened (``np.unique`` picking
the deterministic winner, standing in for the owner's inbox order), and
the write is applied once, by the owner, at a barrier.

Keeping the helpers here — not inline in the engines — also keeps the
write sets honest: each helper's signature *is* the list of arrays that
superstep commit may touch, which is what the REP004 rule checks.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from repro.matching.base import UNMATCHED

F = TypeVar("F", bound=Callable[..., None])


def superstep_commit(func: F) -> F:
    """Mark ``func`` as a superstep-boundary commit helper.

    Identity at runtime. The effect analyzer treats calls to decorated
    functions as atomic writes to their array arguments; the phase rules
    exempt the helper bodies themselves (they run at the barrier, not
    inside a phase).
    """
    func.__superstep_commit__ = True  # type: ignore[attr-defined]
    return func


@superstep_commit
def commit_claims(
    visited: np.ndarray,
    parent: np.ndarray,
    root_y: np.ndarray,
    winners: np.ndarray,
    win_x: np.ndarray,
    roots: np.ndarray,
) -> None:
    """Apply first-writer-wins Y claims at their owners.

    ``winners`` must be unique (one surviving claim per y); callers
    resolve ties beforehand in deterministic inbox order.
    """
    visited[winners] = 1
    parent[winners] = win_x
    root_y[winners] = roots


@superstep_commit
def commit_renewable_leaves(
    leaf: np.ndarray,
    renewable: np.ndarray,
    fresh: np.ndarray,
    fresh_leaf: np.ndarray,
) -> None:
    """Record newly found augmenting-path endpoints at the root owners.

    ``leaf`` keeps the paper's benign last-writer-wins semantics — any
    endpoint is a valid path end — but the *application* happens once per
    superstep at the owner, after the per-root winner was picked.
    """
    leaf[fresh] = fresh_leaf
    renewable[fresh] = True


@superstep_commit
def commit_activations(
    root_x: np.ndarray, activations: np.ndarray, act_roots: np.ndarray
) -> None:
    """Attach newly activated X columns to their trees (next frontier)."""
    root_x[activations] = act_roots


@superstep_commit
def commit_match_flip(
    mate_x: np.ndarray, mate_y: np.ndarray, x: np.ndarray, y: np.ndarray
) -> None:
    """Flip matched edges ``(x, y)`` of augmenting paths at the endpoint owners."""
    mate_x[x] = y
    mate_y[y] = x


@superstep_commit
def release_rows(
    visited: np.ndarray, root_y: np.ndarray, rows: np.ndarray
) -> None:
    """Return ``rows`` to the unvisited pool (graft recycling / rebuild)."""
    visited[rows] = 0
    root_y[rows] = UNMATCHED


@superstep_commit
def retire_trees(root_x: np.ndarray, cols: np.ndarray) -> None:
    """Detach X columns whose tree found an augmenting path this phase."""
    root_x[cols] = UNMATCHED


@superstep_commit
def commit_rebuild(
    root_x: np.ndarray,
    leaf: np.ndarray,
    renewable: np.ndarray,
    frontier: np.ndarray,
) -> None:
    """Destroy-and-rebuild: every unmatched X restarts as its own root."""
    root_x[:] = UNMATCHED
    root_x[frontier] = frontier
    leaf[frontier] = UNMATCHED
    renewable[frontier] = False
