"""End-to-end batch executor scenarios from the acceptance criteria:
retry-then-succeed, numpy->python degradation, deadline timeout, and
kill-then-resume with identical certified cardinalities."""

import numpy as np
import pytest

from repro.bench.runner import run_algorithm
from repro.service import events as ev
from repro.service.checkpoint import RunDirectory
from repro.service.events import read_events
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.faults import FaultPlan
from repro.service.jobs import JobSpec, resolve_graph
from repro.service.retry import RetryPolicy

GRAPH = {"suite": "rmat", "scale": 0.05}
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)


def spec(job_id="j1", **kwargs):
    kwargs.setdefault("graph", GRAPH)
    return JobSpec(job_id=job_id, **kwargs)


def expected_cardinality(s):
    return run_algorithm(s.algorithm, resolve_graph(s), seed=s.seed).cardinality


def events_of(run_dir, name):
    return [e for e in read_events(RunDirectory(run_dir).events_path)
            if e["event"] == name]


class TestHappyPath:
    def test_single_job_done_and_checkpointed(self, tmp_path):
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        [out] = ex.run_batch([spec()])
        assert out.status == "done" and out.succeeded
        assert out.attempts == 1 and out.retries == 0 and not out.degraded
        assert out.cardinality == expected_cardinality(spec())
        assert (tmp_path / "run" / "checkpoints" / "j1.npz").exists()
        names = [e["event"] for e in read_events(tmp_path / "run" / "events.jsonl")]
        assert names == [
            ev.BATCH_STARTED, ev.JOB_QUEUED, ev.JOB_STARTED,
            ev.JOB_CHECKPOINTED, ev.JOB_DONE, ev.BATCH_DONE,
        ]

    def test_engine_unaware_algorithm_supported(self, tmp_path):
        s = spec(algorithm="hopcroft-karp")
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        [out] = ex.run_batch([s])
        assert out.status == "done"
        assert out.engine_used is None  # single native implementation
        assert out.cardinality == expected_cardinality(s)


class TestRetry:
    def test_retry_then_succeed_under_flaky_engine(self, tmp_path):
        clock = ManualClock()
        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(flaky_failures=1), clock=clock,
        )
        [out] = ex.run_batch([spec(engine="numpy")])
        assert out.status == "done"
        assert out.attempts == 2 and out.retries == 1
        assert not out.degraded and out.engine_used == "numpy"
        retried = events_of(tmp_path / "run", ev.JOB_RETRIED)
        assert len(retried) == 1
        assert "flaky-engine" in retried[0]["error"]
        # Backoff waited on the service clock, not real time.
        assert clock.now() >= 0.01

    def test_backoff_delays_grow(self, tmp_path):
        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(flaky_failures=2), clock=ManualClock(),
        )
        [out] = ex.run_batch([spec(engine="numpy")])
        assert out.status == "done" and out.attempts == 3
        delays = [e["delay_seconds"]
                  for e in events_of(tmp_path / "run", ev.JOB_RETRIED)]
        assert delays == pytest.approx([0.01, 0.02])


class TestDegradation:
    def test_numpy_falls_back_to_python(self, tmp_path):
        # k >= max_attempts: the fast engine's budget exhausts and the job
        # degrades to the python reference engine, which the fault spares.
        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(flaky_failures=3), clock=ManualClock(),
        )
        [out] = ex.run_batch([spec(engine="numpy")])
        assert out.status == "done"
        assert out.degraded and out.engine_used == "python"
        assert out.attempts == 4  # 3 doomed numpy attempts + 1 python
        assert out.cardinality == expected_cardinality(spec(engine="numpy"))
        degraded = events_of(tmp_path / "run", ev.JOB_DEGRADED)
        assert len(degraded) == 1
        assert degraded[0]["from_engine"] == "numpy"
        assert degraded[0]["to_engine"] == "python"

    def test_python_engine_has_no_fallback(self, tmp_path):
        # Force a permanent failure on the python engine: no degradation
        # target remains, so the job is failed (not retried forever).
        ex = BatchExecutor(tmp_path / "run", retry=FAST_RETRY, clock=ManualClock())
        s = spec(engine="python", graph={"path": str(tmp_path / "missing.mtx")})
        [out] = ex.run_batch([s])
        assert out.status == "failed" and not out.succeeded
        assert out.error


class TestDeadline:
    def test_slow_phase_expires_deadline(self, tmp_path):
        clock = ManualClock()
        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(slow_phase_seconds=0.15), clock=clock,
        )
        slow = spec("slow", deadline_seconds=0.2)
        ok = spec("ok")  # no deadline: the injected slowness is harmless
        outcomes = ex.run_batch([slow, ok])
        assert outcomes[0].status == "timeout"
        assert not outcomes[0].succeeded
        assert "deadline" in outcomes[0].error
        # A timed-out job is terminal: exactly one attempt, no retries.
        assert outcomes[0].attempts == 1 and outcomes[0].retries == 0
        # The batch kept going past the timeout.
        assert outcomes[1].status == "done"
        timeout_events = events_of(tmp_path / "run", ev.JOB_TIMEOUT)
        assert len(timeout_events) == 1 and timeout_events[0]["job"] == "slow"

    def test_default_deadline_applies(self, tmp_path):
        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(slow_phase_seconds=0.3),
            default_deadline=0.2, clock=ManualClock(),
        )
        [out] = ex.run_batch([spec()])
        assert out.status == "timeout"

    def test_generous_deadline_harmless(self, tmp_path):
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        [out] = ex.run_batch([spec(deadline_seconds=3600.0)])
        assert out.status == "done"


class TestResume:
    def test_kill_then_resume_recomputes_nothing(self, tmp_path):
        jobs = [spec("a"), spec("b", algorithm="hopcroft-karp")]
        first = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert all(o.status == "done" for o in first)

        # "Kill" = a fresh executor process against the same run directory.
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert all(o.status == "resumed" for o in second)
        assert all(o.attempts == 0 for o in second)  # zero recomputation
        assert [o.cardinality for o in second] == [o.cardinality for o in first]
        resumed = events_of(tmp_path / "run", ev.JOB_RESUMED)
        assert [e["job"] for e in resumed] == ["a", "b"]
        # The event log reads as one stream with monotone seq across runs.
        seqs = [e["seq"] for e in read_events(tmp_path / "run" / "events.jsonl")]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_partial_run_finishes_remaining_jobs(self, tmp_path):
        a, b = spec("a"), spec("b", seed=1)
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([a])
        outcomes = BatchExecutor(tmp_path / "run",
                                 clock=ManualClock()).run_batch([a, b])
        assert [o.status for o in outcomes] == ["resumed", "done"]

    def test_resumed_matchings_are_recertified(self, tmp_path):
        # Tamper with the checkpoint after completion: resume must detect
        # the defect and recompute instead of trusting the bytes.
        s = spec("a")
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        ckpt = tmp_path / "run" / "checkpoints" / "a.npz"
        ckpt.write_bytes(b"not an npz file")
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "done"  # recomputed, not resumed
        assert out.cardinality == expected_cardinality(s)
        rejected = [e for e in events_of(tmp_path / "run", ev.JOB_STARTED)
                    if "checkpoint rejected" in str(e.get("note", ""))]
        assert rejected

    def test_manifest_cardinality_mismatch_recomputes(self, tmp_path):
        import json

        s = spec("a")
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["jobs"]["a"]["cardinality"] += 1
        manifest_path.write_text(json.dumps(manifest))
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "done"

    def test_spec_change_invalidates_checkpoint(self, tmp_path):
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([spec("a")])
        changed = spec("a", seed=7)  # same id, different computation
        [out] = BatchExecutor(tmp_path / "run",
                              clock=ManualClock()).run_batch([changed])
        assert out.status == "done"

    def test_resume_after_faulty_first_run(self, tmp_path):
        # The acceptance drill: first run under fault injection, second run
        # resumes cleanly with faults off and identical certified results.
        jobs = [spec("a", engine="numpy"), spec("b", seed=1)]
        first = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(flaky_failures=1), clock=ManualClock(),
        ).run_batch(jobs)
        assert all(o.status == "done" for o in first)
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert all(o.status == "resumed" and o.attempts == 0 for o in second)
        assert [o.cardinality for o in second] == [o.cardinality for o in first]


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self, tmp_path):
        jobs = [spec("a", engine="numpy")]
        kwargs = dict(retry=FAST_RETRY, faults=FaultPlan(flaky_failures=1),
                      jitter_seed=5)
        out1 = BatchExecutor(tmp_path / "r1", clock=ManualClock(),
                             **kwargs).run_batch(jobs)
        out2 = BatchExecutor(tmp_path / "r2", clock=ManualClock(),
                             **kwargs).run_batch(jobs)
        strip = [(o.status, o.attempts, o.retries, o.cardinality) for o in out1]
        assert strip == [(o.status, o.attempts, o.retries, o.cardinality)
                         for o in out2]
        d1 = [e["delay_seconds"] for e in events_of(tmp_path / "r1", ev.JOB_RETRIED)]
        d2 = [e["delay_seconds"] for e in events_of(tmp_path / "r2", ev.JOB_RETRIED)]
        assert d1 == d2

    def test_manual_clock_advances_without_real_time(self):
        clock = ManualClock()
        clock.sleep(2.5)
        assert clock.now() == pytest.approx(2.5)
        assert clock.wall() == pytest.approx(2.5)
        with pytest.raises(Exception):
            clock.sleep(-1.0)


class TestBatchReport:
    def test_report_renders_outcomes(self, tmp_path):
        from repro.instrument.report import batch_report
        from repro.service.events import summarize_events

        ex = BatchExecutor(
            tmp_path / "run", retry=FAST_RETRY,
            faults=FaultPlan(flaky_failures=1), clock=ManualClock(),
        )
        outcomes = ex.run_batch([spec(engine="numpy")])
        counts = summarize_events(read_events(tmp_path / "run" / "events.jsonl"))
        text = batch_report(outcomes, counts)
        assert "1/1 jobs succeeded" in text
        assert "job_retried x1" in text
        assert str(outcomes[0].cardinality) in text


def test_checkpoint_files_are_valid_npz(tmp_path):
    BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([spec("a")])
    with np.load(tmp_path / "run" / "checkpoints" / "a.npz") as data:
        assert len(data.files) > 0
