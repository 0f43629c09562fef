"""The batch executor: deadlines, one engine run per job, checkpoint/resume.

Execution model per job (full semantics in ``docs/service.md``):

1. **Resume** — if the run directory holds a checkpoint of the job's
   current spec (file name carries the spec digest), it is read against
   the freshly re-resolved graph and *re-certified* with
   :func:`~repro.matching.verify.verify_maximum`. Only a certificate that
   still holds skips recomputation.
2. **Run** — otherwise the job makes one engine run under its cooperative
   deadline. The engines are deterministic, so nothing is retried: a
   deadline expiry ends the job ``timeout`` and any other exception ends
   it ``failed``, with the traceback in the event log.
3. **Checkpoint** — every successful matching is verified maximum and
   written atomically as the job's checkpoint; the file existing is what
   marks the job done.

All timing flows through an injectable clock, so the fault-injection tests
expire deadlines without real waiting.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.bench.runner import run_algorithm
from repro.core.options import Deadline
from repro.errors import DeadlineExceeded, ServiceError
from repro.matching.verify import verify_maximum
from repro.service import events as ev
from repro.service.checkpoint import RunDirectory
from repro.service.events import EventLog
from repro.service.jobs import JobOutcome, JobSpec, resolve_graph
from repro.telemetry.session import NULL_TELEMETRY


@dataclass
class SystemClock:
    """Real time: monotonic now, wall-clock timestamps, real sleeps."""

    now: Callable[[], float] = field(default=time.monotonic)
    wall: Callable[[], float] = field(default=time.time)
    sleep: Callable[[float], None] = field(default=time.sleep)


class ManualClock:
    """Deterministic clock for tests and reproducible fault drills.

    ``sleep`` advances ``now`` instantly, so injected slow phases consume
    simulated, not real, time.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def wall(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ServiceError(f"cannot sleep {seconds}s")
        self._now += seconds

    def advance(self, seconds: float) -> None:
        self.sleep(seconds)


class BatchExecutor:
    """Runs a queue of :class:`JobSpec`, one engine run per job.

    ``slow_phase_seconds`` is the ``slow-phase`` fault
    (:func:`repro.service.faults.parse_faults`): every engine phase burns
    that much time on ``clock``; ``0.0`` injects nothing.
    """

    def __init__(
        self,
        run_dir: Union[str, Path, RunDirectory],
        *,
        slow_phase_seconds: float = 0.0,
        default_deadline: Optional[float] = None,
        clock: Optional[object] = None,
        telemetry: Optional[object] = None,
        progress: Optional[Callable[[str], None]] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.run_dir = run_dir if isinstance(run_dir, RunDirectory) else RunDirectory(run_dir)
        self.slow_phase_seconds = slow_phase_seconds
        self.default_deadline = default_deadline
        self.clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.progress = progress
        self.cache = cache
        """Optional :class:`repro.cache.GraphCache` for graph resolution."""

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run_batch(self, jobs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Execute (or resume) every job; never raises for per-job failures."""
        faults = (
            [f"slow-phase:{self.slow_phase_seconds}"]
            if self.slow_phase_seconds > 0 else []
        )
        with EventLog(self.run_dir.events_path, clock=self.clock.wall) as log:
            log.emit(ev.BATCH_STARTED, jobs=len(jobs), faults=faults)
            for spec in jobs:
                log.emit(ev.JOB_QUEUED, spec.job_id, algorithm=spec.algorithm,
                         engine=spec.engine, digest=spec.digest())
            outcomes = []
            for index, spec in enumerate(jobs, 1):
                outcome = self._run_job(spec, log)
                outcomes.append(outcome)
                self._report_progress(index, len(jobs), outcome)
            log.emit(
                ev.BATCH_DONE,
                done=sum(o.status == "done" for o in outcomes),
                resumed=sum(o.status == "resumed" for o in outcomes),
                timeout=sum(o.status == "timeout" for o in outcomes),
                failed=sum(o.status == "failed" for o in outcomes),
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # per-job machinery
    # ------------------------------------------------------------------ #

    def _report_progress(self, index: int, total: int, outcome: JobOutcome) -> None:
        if self.progress is None:
            return
        detail = f"engine={outcome.engine_used or 'native'}"
        if outcome.elapsed_seconds:
            detail += f" ({outcome.elapsed_seconds:.2f}s)"
        self.progress(
            f"[{index}/{total}] {outcome.spec.job_id} {outcome.status} {detail}"
        )

    def _run_job(self, spec: JobSpec, log: EventLog) -> JobOutcome:
        tel = self.telemetry
        with tel.job_span(spec.job_id, spec.algorithm, spec.engine) as span:
            outcome, rejected = self._try_resume(spec, log)
            if outcome is None:
                outcome = self._execute(spec, log, note=rejected)
            if span is not None:
                span.set(status=outcome.status)
            tel.count_job(outcome.status)
        return outcome

    def _try_resume(
        self, spec: JobSpec, log: EventLog
    ) -> Tuple[Optional[JobOutcome], Optional[str]]:
        """``(outcome, None)`` if the job resumes from its certified
        checkpoint; ``(None, why)`` if the checkpoint fails re-certification;
        ``(None, None)`` if there is none."""
        digest = spec.digest()
        if not self.run_dir.checkpoint_path(spec.job_id, digest).exists():
            return None, None
        try:
            graph = resolve_graph(spec, cache=self.cache)
            matching = self.run_dir.load_checkpoint(spec.job_id, digest, graph.n_x, graph.n_y)
            verify_maximum(graph, matching)
        except Exception as exc:  # noqa: BLE001 - any resume defect → recompute
            return None, f"checkpoint rejected: {exc}"
        log.emit(ev.JOB_RESUMED, spec.job_id,
                 cardinality=int(matching.cardinality),
                 engine=spec.run_engine, recomputed=False)
        return JobOutcome(
            spec=spec,
            status="resumed",
            engine_used=spec.run_engine,
            cardinality=int(matching.cardinality),
        ), None

    def _execute(self, spec: JobSpec, log: EventLog, note: Optional[str] = None) -> JobOutcome:
        """One engine run; ``note`` (why a checkpoint was rejected) rides on
        its first event, ``job_started`` or a ``job_failed`` at graph resolution."""
        noted = {"note": note} if note else {}
        started = self.clock.now()
        try:
            graph = resolve_graph(spec, cache=self.cache)
        except Exception as exc:  # noqa: BLE001 - reader errors are per-job, not batch
            log.emit(ev.JOB_FAILED, spec.job_id, error=str(exc), stage="resolve-graph",
                     traceback=traceback.format_exc(), **noted)
            return JobOutcome(spec=spec, status="failed", error=str(exc))

        deadline_seconds = (
            spec.deadline_seconds
            if spec.deadline_seconds is not None
            else self.default_deadline
        )
        engine = spec.run_engine
        log.emit(ev.JOB_STARTED, spec.job_id, engine=engine,
                 deadline_seconds=deadline_seconds, **noted)
        try:
            result = self._run(spec, graph, engine, deadline_seconds)
            verify_maximum(graph, result.matching)
            path = self.run_dir.record_done(spec.job_id, spec.digest(), result.matching)
        except DeadlineExceeded as exc:
            log.emit(ev.JOB_TIMEOUT, spec.job_id, error=str(exc),
                     engine=engine, deadline_seconds=deadline_seconds)
            return JobOutcome(
                spec=spec, status="timeout", engine_used=engine,
                error=str(exc), elapsed_seconds=self.clock.now() - started,
            )
        except Exception as exc:  # noqa: BLE001 - a failed run is a failed job
            log.emit(ev.JOB_FAILED, spec.job_id, error=str(exc), engine=engine,
                     traceback=traceback.format_exc())
            return JobOutcome(
                spec=spec, status="failed", engine_used=engine,
                error=str(exc), elapsed_seconds=self.clock.now() - started,
            )
        log.emit(ev.JOB_CHECKPOINTED, spec.job_id,
                 path=str(path.relative_to(self.run_dir.root)))
        log.emit(ev.JOB_DONE, spec.job_id,
                 cardinality=int(result.cardinality), engine=engine,
                 elapsed_seconds=round(self.clock.now() - started, 6))
        return JobOutcome(
            spec=spec, status="done", engine_used=engine,
            cardinality=int(result.cardinality),
            elapsed_seconds=self.clock.now() - started,
        )

    def _run(
        self,
        spec: JobSpec,
        graph,
        engine: Optional[str],
        deadline_seconds: Optional[float],
    ):
        """The job's engine run; deadline/hooks apply to driver-backed jobs only."""
        if not spec.engine_aware:
            return run_algorithm(spec.algorithm, graph, seed=spec.seed)
        deadline = (
            Deadline(deadline_seconds, clock=self.clock.now)
            if deadline_seconds is not None
            else None
        )
        phase_hook = (
            (lambda _phase: self.clock.sleep(self.slow_phase_seconds))
            if self.slow_phase_seconds > 0 else None
        )
        telemetry = self.telemetry if self.telemetry.enabled else None
        return run_algorithm(
            spec.algorithm, graph, seed=spec.seed, engine=engine,
            deadline=deadline, phase_hook=phase_hook, telemetry=telemetry,
        )
