"""The batch executor: deadlines, retries, degradation, checkpoint/resume.

Execution model per job (full semantics in ``docs/service.md``):

1. **Resume** — if the run directory's manifest says the job already
   completed with the same spec digest, the checkpointed matching is loaded
   and *re-certified* with :func:`~repro.matching.verify.verify_maximum`
   against the freshly re-resolved graph. Only a certificate that still
   holds skips recomputation.
2. **Attempts** — otherwise the job runs under its cooperative deadline.
   Transient failures retry on the same engine with exponential backoff +
   jitter; a deadline expiry is terminal (``timeout``).
3. **Degradation** — when a fast engine (``numpy``/``auto``/
   ``interleaved``) exhausts its attempts or fails permanently, the job
   falls back to the ``python`` reference engine with a fresh attempt
   budget before being declared ``failed``.
4. **Checkpoint** — every successful matching is verified maximum, written
   atomically via :mod:`repro.graph.serialize`, and recorded in the
   manifest (checkpoint before manifest, so the manifest never points at a
   torn file).

All timing flows through an injectable clock, so the fault-injection tests
expire deadlines and "sleep" through backoff without real waiting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.bench.runner import run_algorithm
from repro.core.options import Deadline
from repro.errors import DeadlineExceeded, ServiceError
from repro.matching.verify import verify_maximum
from repro.service import events as ev
from repro.service.checkpoint import RunDirectory
from repro.service.events import EventLog
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.jobs import JobOutcome, JobSpec, resolve_graph
from repro.service.retry import RetryPolicy, classify_failure
from repro.telemetry.session import NULL_TELEMETRY
from repro.util.rng import as_rng


@dataclass
class SystemClock:
    """Real time: monotonic now, wall-clock timestamps, real sleeps."""

    now: Callable[[], float] = field(default=time.monotonic)
    wall: Callable[[], float] = field(default=time.time)
    sleep: Callable[[float], None] = field(default=time.sleep)


class ManualClock:
    """Deterministic clock for tests and reproducible fault drills.

    ``sleep`` advances ``now`` instantly, so backoff delays and injected
    slow phases consume simulated, not real, time.
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
    """Runs a queue of :class:`JobSpec` under the service's fault policy."""

    def __init__(
        self,
        run_dir: Union[str, Path, RunDirectory],
        *,
        retry: RetryPolicy = RetryPolicy(),
        faults: FaultPlan = FaultPlan(),
        default_deadline: Optional[float] = None,
        clock: Optional[object] = None,
        jitter_seed: int = 0,
        telemetry: Optional[object] = None,
        progress: Optional[Callable[[str], None]] = None,
        cache: Optional[object] = None,
    ) -> None:
        self.run_dir = run_dir if isinstance(run_dir, RunDirectory) else RunDirectory(run_dir)
        self.retry = retry
        self.faults = faults
        self.default_deadline = default_deadline
        self.clock = clock if clock is not None else SystemClock()
        self._rng = as_rng(jitter_seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.progress = progress
        self.cache = cache
        """Optional :class:`repro.cache.GraphCache` for graph resolution."""

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run_batch(self, jobs: Sequence[JobSpec]) -> List[JobOutcome]:
        """Execute (or resume) every job; never raises for per-job failures."""
        injector = FaultInjector(self.faults, sleep=self.clock.sleep)
        with EventLog(self.run_dir.events_path, clock=self.clock.wall) as log:
            log.emit(ev.BATCH_STARTED, jobs=len(jobs),
                     faults=sorted(self._fault_names()))
            for spec in jobs:
                log.emit(ev.JOB_QUEUED, spec.job_id, algorithm=spec.algorithm,
                         engine=spec.engine, digest=spec.digest())
            outcomes = []
            for index, spec in enumerate(jobs, 1):
                outcome = self._run_job(spec, log, injector)
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

    def _fault_names(self) -> List[str]:
        names = []
        if self.faults.flaky_failures > 0:
            names.append(f"flaky-engine:{self.faults.flaky_failures}")
        if self.faults.slow_phase_seconds > 0:
            names.append(f"slow-phase:{self.faults.slow_phase_seconds}")
        return names

    def _report_progress(self, index: int, total: int, outcome: JobOutcome) -> None:
        if self.progress is None:
            return
        detail = f"engine={outcome.engine_used or 'native'} attempts={outcome.attempts}"
        if outcome.degraded:
            detail += " degraded"
        if outcome.elapsed_seconds:
            detail += f" ({outcome.elapsed_seconds:.2f}s)"
        self.progress(
            f"[{index}/{total}] {outcome.spec.job_id} {outcome.status} {detail}"
        )

    def _run_job(self, spec: JobSpec, log: EventLog, injector: FaultInjector) -> JobOutcome:
        tel = self.telemetry
        with tel.job_span(spec.job_id, spec.algorithm, spec.engine) as span:
            resumed = self._try_resume(spec, log)
            if resumed is not None:
                outcome = resumed
            else:
                outcome = self._execute(spec, log, injector)
            if span is not None:
                span.set(status=outcome.status, attempts=outcome.attempts,
                         degraded=outcome.degraded)
            tel.count_job(outcome.status)
        return outcome

    def _try_resume(self, spec: JobSpec, log: EventLog) -> Optional[JobOutcome]:
        entry = self.run_dir.completed_entry(spec.job_id, spec.digest())
        if entry is None:
            return None
        try:
            graph = resolve_graph(spec, cache=self.cache)
            matching = self.run_dir.load_checkpoint(spec.job_id)
            verify_maximum(graph, matching)
            if matching.cardinality != entry["cardinality"]:
                raise ServiceError(
                    f"checkpoint cardinality {matching.cardinality} does not "
                    f"match manifest {entry['cardinality']}"
                )
        except Exception as exc:  # noqa: BLE001 - any resume defect → recompute
            log.emit(ev.JOB_STARTED, spec.job_id, attempt=0,
                     engine=spec.engine, note=f"checkpoint rejected: {exc}")
            return None
        log.emit(ev.JOB_RESUMED, spec.job_id,
                 cardinality=int(matching.cardinality),
                 engine=entry.get("engine"), recomputed=False)
        return JobOutcome(
            spec=spec,
            status="resumed",
            attempts=0,
            engine_used=entry.get("engine"),
            cardinality=int(matching.cardinality),
            degraded=bool(entry.get("degraded", False)),
        )

    def _engine_chain(self, spec: JobSpec) -> List[Optional[str]]:
        """Engines to try in order; the last entry is the degradation target."""
        if not spec.engine_aware:
            return [None]  # algorithm has a single native implementation
        first = spec.engine or "auto"
        if first == "python":
            return ["python"]
        return [first, "python"]

    def _execute(self, spec: JobSpec, log: EventLog, injector: FaultInjector) -> JobOutcome:
        started = self.clock.now()
        try:
            graph = resolve_graph(spec, cache=self.cache)
        except Exception as exc:  # noqa: BLE001 - reader errors are per-job, not batch
            log.emit(ev.JOB_FAILED, spec.job_id, error=str(exc), stage="resolve-graph")
            return JobOutcome(spec=spec, status="failed", error=str(exc))

        deadline_seconds = (
            spec.deadline_seconds
            if spec.deadline_seconds is not None
            else self.default_deadline
        )
        chain = self._engine_chain(spec)
        attempts = 0
        retries = 0
        last_error: Optional[BaseException] = None

        for engine_index, engine in enumerate(chain):
            degraded = engine_index > 0
            for attempt in range(1, self.retry.max_attempts + 1):
                attempts += 1
                log.emit(ev.JOB_STARTED, spec.job_id, attempt=attempts,
                         engine=engine, deadline_seconds=deadline_seconds)
                try:
                    with self.telemetry.attempt_span(
                        spec.job_id, attempts, engine or "native"
                    ):
                        injector.before_attempt(spec.job_id, engine or "native")
                        result = self._run_attempt(
                            spec, graph, engine, deadline_seconds, injector
                        )
                    verify_maximum(graph, result.matching)
                    path = self.run_dir.record_done(
                        spec.job_id,
                        digest=spec.digest(),
                        matching=result.matching,
                        cardinality=result.cardinality,
                        engine=engine,
                        attempts=attempts,
                        degraded=degraded,
                    )
                    log.emit(ev.JOB_CHECKPOINTED, spec.job_id,
                             path=str(path.relative_to(self.run_dir.root)))
                    log.emit(ev.JOB_DONE, spec.job_id,
                             cardinality=int(result.cardinality), engine=engine,
                             attempts=attempts, degraded=degraded,
                             elapsed_seconds=round(self.clock.now() - started, 6))
                    return JobOutcome(
                        spec=spec, status="done", attempts=attempts,
                        engine_used=engine, cardinality=int(result.cardinality),
                        degraded=degraded, retries=retries,
                        elapsed_seconds=self.clock.now() - started,
                    )
                except DeadlineExceeded as exc:
                    log.emit(ev.JOB_TIMEOUT, spec.job_id, error=str(exc),
                             engine=engine, attempts=attempts,
                             deadline_seconds=deadline_seconds)
                    return JobOutcome(
                        spec=spec, status="timeout", attempts=attempts,
                        engine_used=engine, error=str(exc), retries=retries,
                        degraded=degraded,
                        elapsed_seconds=self.clock.now() - started,
                    )
                except Exception as exc:  # noqa: BLE001 - classified below
                    last_error = exc
                    if (
                        classify_failure(exc) == "transient"
                        and attempt < self.retry.max_attempts
                    ):
                        delay = self.retry.backoff_seconds(attempt, self._rng)
                        retries += 1
                        self.telemetry.count_retry()
                        log.emit(ev.JOB_RETRIED, spec.job_id, attempt=attempts,
                                 engine=engine, delay_seconds=round(delay, 6),
                                 error=str(exc))
                        self.clock.sleep(delay)
                        continue
                    break  # permanent, or transient budget exhausted
            if engine_index + 1 < len(chain):
                self.telemetry.count_degradation()
                log.emit(ev.JOB_DEGRADED, spec.job_id,
                         from_engine=engine, to_engine=chain[engine_index + 1],
                         error=str(last_error))

        error = str(last_error) if last_error is not None else "unknown failure"
        log.emit(ev.JOB_FAILED, spec.job_id, error=error, attempts=attempts)
        return JobOutcome(
            spec=spec, status="failed", attempts=attempts,
            engine_used=chain[-1], error=error, retries=retries,
            degraded=len(chain) > 1,
            elapsed_seconds=self.clock.now() - started,
        )

    def _run_attempt(
        self,
        spec: JobSpec,
        graph,
        engine: Optional[str],
        deadline_seconds: Optional[float],
        injector: FaultInjector,
    ):
        """One engine attempt; deadline/hooks apply to driver-backed jobs only."""
        if not spec.engine_aware:
            return run_algorithm(spec.algorithm, graph, seed=spec.seed)
        deadline = (
            Deadline(deadline_seconds, clock=self.clock.now)
            if deadline_seconds is not None
            else None
        )
        phase_hook = (
            injector.phase_hook if self.faults.slow_phase_seconds > 0 else None
        )
        telemetry = self.telemetry if self.telemetry.enabled else None
        return run_algorithm(
            spec.algorithm, graph, seed=spec.seed, engine=engine,
            deadline=deadline, phase_hook=phase_hook, telemetry=telemetry,
        )
