"""Configuration for the MS-BFS-Graft driver, including backend dispatch."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import DeadlineExceeded, ReproError

DISPATCH_WORK_THRESHOLD = 4096
"""Crossover point of the backend cost model (see :func:`repro.core.driver.choose_engine`).

The vectorized backend pays a fixed per-kernel-call overhead (numpy ufunc
dispatch, temporary allocation) that the interpreted backend does not; the
interpreted backend pays a per-edge interpretation cost the vectorized one
amortises. Analogous to the paper's direction rule (top-down while
``|F| < numUnvisitedY / alpha``), the dispatcher therefore picks the
interpreted backend while the run's estimated work ``nnz + n_x + n_y``
is below this threshold. The value is calibrated on ER bipartite graphs
(``random_bipartite(n, n, 4n)``, three seeds, median of 100 alternating
runs): python wins on every graph up to work 2,400 (ratio 0.5) and numpy
on every graph from 7,200 (ratio 1.16); in between the per-graph ratio
straddles 1.0 and its geometric mean crosses it at work ≈ 4,800. The
threshold stays inside that band, where no value is measurably better;
``docs/performance.md`` records the calibration table."""


class Deadline:
    """Cooperative soft deadline for one engine run.

    The engines call :meth:`check` at every phase boundary and raise
    :class:`~repro.errors.DeadlineExceeded` once the budget is spent. Soft
    by design: a phase in flight always completes, so the matching state is
    never torn down mid-kernel — the paper's phase loop is the natural
    preemption point, exactly like its direction-switch decision.

    ``clock`` is injectable (default :func:`time.monotonic`) so the batch
    service's fault injection and the tests can expire deadlines
    deterministically without real waiting.
    """

    __slots__ = ("seconds", "_clock", "_start")

    def __init__(self, seconds: float, *, clock: Callable[[], float] = time.monotonic) -> None:
        if seconds <= 0:
            raise ReproError(f"deadline must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() < 0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed - self.seconds > 0:
            where = f" at {context}" if context else ""
            raise DeadlineExceeded(
                f"deadline of {self.seconds:.3f}s exceeded{where} "
                f"({elapsed:.3f}s elapsed)"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.seconds}s, {self.remaining():.3f}s remaining)"


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of the backend cost model, with its inputs for reporting.

    ``reorder`` is always ``"none"``: vertex reordering was removed, and
    the field stays for callers that still read it.
    """

    engine: str
    reason: str
    work: int
    threshold: int
    reorder: str = "none"


@dataclass(frozen=True)
class GraftOptions:
    """Feature flags and tuning knobs of Algorithm 3.

    ``alpha`` is the single threshold of the paper (Section III-B): top-down
    is chosen while ``|F| < numUnvisitedY / alpha``, and grafting is chosen
    while ``|activeX| > |renewableY| / alpha``. The paper found alpha ≈ 5
    best; the ablation bench sweeps it.

    ``direction_optimizing=False`` forces top-down BFS; ``grafting=False``
    forces the destroy-and-rebuild branch — together they turn the algorithm
    into plain MS-BFS (Algorithm 2), which is how the Fig. 7 contribution
    breakdown is measured.
    """

    alpha: float = 5.0
    direction_optimizing: bool = True
    grafting: bool = True
    direction_strategy: str = "vertex"
    """How the top-down/bottom-up switch counts the frontier:

    * ``"vertex"`` — the paper's Algorithm 3 line 9: top-down while
      ``|F| < numUnvisitedY / alpha`` (vertex counts);
    * ``"edge"`` — Beamer's original heuristic: top-down while the
      frontier's out-edge count is below the unvisited side's edge count
      divided by alpha. Degree-weighted, so hub-heavy frontiers switch
      earlier; exposed for the ablation bench.
    """
    emit_trace: bool = False
    check_invariants: bool = False
    """Check the engine invariants every phase (slow; tests only)."""
    deadline: Optional[Deadline] = field(default=None, compare=False)
    """Cooperative soft timeout, checked at every phase boundary.

    When set, the engines raise :class:`~repro.errors.DeadlineExceeded` at
    the first phase boundary past expiry. ``None`` (the default) runs to
    completion. Excluded from equality: two option sets describing the same
    algorithm configuration stay equal regardless of runtime budget.
    """
    phase_hook: Optional[Callable[[int], None]] = field(default=None, compare=False)
    """Called with the 1-based phase number at the start of every phase.

    The batch service's ``slow-phase`` fault injection hangs off this hook;
    it is also a convenient progress callback. Runs *after* the deadline
    check, so an injected delay is charged to the phase it slows down.
    """
    telemetry: Optional[object] = field(default=None, compare=False)
    """Telemetry session (:class:`repro.telemetry.Telemetry`) or ``None``.

    When set, :meth:`begin_phase` opens one span per phase through this
    seam (all three engines share it) and the engines add step spans and
    metrics on top. ``None`` (the default) costs a single attribute check
    per phase — the disabled-overhead bound in the telemetry tests relies
    on this field staying a plain attribute. Excluded from equality, like
    the other runtime-only fields."""
    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ReproError(f"alpha must be positive, got {self.alpha}")
        if self.direction_strategy not in ("vertex", "edge"):
            raise ReproError(
                f"direction_strategy must be 'vertex' or 'edge', got {self.direction_strategy!r}"
            )

    def begin_phase(self, phase: int) -> None:
        """Phase-boundary bookkeeping, shared by all engines.

        Checks the deadline first (raising
        :class:`~repro.errors.DeadlineExceeded` if the budget is spent),
        then opens the telemetry phase span, then runs the phase hook — in
        that order, so a hook-injected delay (the service's ``slow-phase``
        fault) is charged to the phase span it slows down. Engines call
        this once per phase, right after incrementing the phase counter.
        """
        if self.deadline is not None:
            self.deadline.check(context=f"phase {phase}")
        if self.telemetry is not None:
            self.telemetry.begin_phase(phase)
        if self.phase_hook is not None:
            self.phase_hook(phase)

    @property
    def algorithm_name(self) -> str:
        if self.grafting and self.direction_optimizing:
            return "ms-bfs-graft"
        if self.grafting:
            return "ms-bfs-graft-td"
        if self.direction_optimizing:
            return "ms-bfs-do"
        return "ms-bfs"
