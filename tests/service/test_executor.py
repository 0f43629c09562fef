"""End-to-end batch executor scenarios: one engine run per job, a failed
run fails only its job, deadline timeout, and kill-then-resume with
identical certified cardinalities."""

import json

import numpy as np
import pytest

from repro.bench.runner import run_algorithm
from repro.service import events as ev
from repro.service.checkpoint import RunDirectory
from repro.service.events import read_events
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.jobs import JobSpec, resolve_graph

GRAPH = {"suite": "rmat", "scale": 0.05}


def spec(job_id="j1", **kwargs):
    kwargs.setdefault("graph", GRAPH)
    return JobSpec(job_id=job_id, **kwargs)


def expected_cardinality(s):
    return run_algorithm(s.algorithm, resolve_graph(s), seed=s.seed).cardinality


def events_of(run_dir, name, after_seq=0):
    return [e for e in read_events(RunDirectory(run_dir).events_path)
            if e["event"] == name and e["seq"] > after_seq]


def last_seq(run_dir):
    return max(e["seq"] for e in read_events(RunDirectory(run_dir).events_path))


class TestHappyPath:
    def test_single_job_done_and_checkpointed(self, tmp_path):
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        [out] = ex.run_batch([spec()])
        assert out.status == "done" and out.succeeded
        assert out.engine_used == "auto"
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


class TestFailure:
    def test_engine_exception_fails_only_its_job(self, tmp_path, monkeypatch):
        engines_tried = []

        def exploding_engine(algorithm, graph, *, seed=0, engine=None, **kw):
            if seed == 0:  # job "a"
                engines_tried.append(engine)
                raise RuntimeError("boom")
            return run_algorithm(algorithm, graph, seed=seed, engine=engine, **kw)

        monkeypatch.setattr("repro.service.executor.run_algorithm", exploding_engine)
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        a, b = ex.run_batch([spec("a", engine="numpy"), spec("b", seed=1)])
        assert a.status == "failed" and a.error == "boom"
        assert a.engine_used == "numpy" and engines_tried == ["numpy"]
        started = [e for e in events_of(tmp_path / "run", ev.JOB_STARTED)
                   if e["job"] == "a"]
        assert len(started) == 1 and started[0]["engine"] == "numpy"
        [failed] = events_of(tmp_path / "run", ev.JOB_FAILED)
        assert failed["job"] == "a" and failed["error"] == "boom"
        assert "exploding_engine" in failed["traceback"]
        assert "RuntimeError: boom" in failed["traceback"]
        assert b.status == "done"

    def test_unreadable_graph_fails_the_job(self, tmp_path):
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        s = spec(engine="python", graph={"path": str(tmp_path / "missing.mtx")})
        [out] = ex.run_batch([s])
        assert out.status == "failed" and not out.succeeded
        assert out.error
        [failed] = events_of(tmp_path / "run", ev.JOB_FAILED)
        assert failed["stage"] == "resolve-graph" and failed["traceback"]
        assert events_of(tmp_path / "run", ev.JOB_STARTED) == []


class TestDeadline:
    def test_slow_phase_expires_deadline(self, tmp_path):
        clock = ManualClock()
        ex = BatchExecutor(tmp_path / "run", slow_phase_seconds=0.15, clock=clock)
        slow = spec("slow", deadline_seconds=0.2)
        ok = spec("ok")  # no deadline: the injected slowness is harmless
        outcomes = ex.run_batch([slow, ok])
        assert outcomes[0].status == "timeout"
        assert not outcomes[0].succeeded
        assert "deadline" in outcomes[0].error
        # A timed-out job is terminal: exactly one engine run.
        assert [e["job"] for e in events_of(tmp_path / "run", ev.JOB_STARTED)
                ].count("slow") == 1
        # The batch kept going past the timeout.
        assert outcomes[1].status == "done"
        timeout_events = events_of(tmp_path / "run", ev.JOB_TIMEOUT)
        assert len(timeout_events) == 1 and timeout_events[0]["job"] == "slow"

    def test_default_deadline_applies(self, tmp_path):
        ex = BatchExecutor(
            tmp_path / "run", slow_phase_seconds=0.3,
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
        before = last_seq(tmp_path / "run")
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert all(o.status == "resumed" for o in second)
        # Zero recomputation: the second run started no engine.
        assert events_of(tmp_path / "run", ev.JOB_STARTED, after_seq=before) == []
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

    def test_old_manifest_entry_still_resumes(self, tmp_path):
        # Run directories outlive upgrades: an entry written when the
        # manifest still recorded attempts/degraded resumes as before.
        s = spec("a")
        [first] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["jobs"]["a"].update(attempts=2, degraded=False)
        manifest_path.write_text(json.dumps(manifest))
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "resumed"
        assert out.cardinality == first.cardinality

    def test_resume_after_faulty_first_run(self, tmp_path):
        # The acceptance drill: a first run under fault injection times one
        # job out; the second run, faults off, recomputes only that job and
        # resumes the other with identical certified results.
        jobs = [spec("a", engine="numpy", deadline_seconds=0.2), spec("b", seed=1)]
        first = BatchExecutor(
            tmp_path / "run", slow_phase_seconds=0.15, clock=ManualClock(),
        ).run_batch(jobs)
        assert [o.status for o in first] == ["timeout", "done"]
        before = last_seq(tmp_path / "run")
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert [o.status for o in second] == ["done", "resumed"]
        started = events_of(tmp_path / "run", ev.JOB_STARTED, after_seq=before)
        assert [e["job"] for e in started] == ["a"]
        assert second[0].cardinality == expected_cardinality(jobs[0])
        assert second[1].cardinality == first[1].cardinality


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self, tmp_path):
        jobs = [spec("a", engine="numpy", deadline_seconds=0.2), spec("b", seed=1)]
        out1 = BatchExecutor(tmp_path / "r1", slow_phase_seconds=0.15,
                             clock=ManualClock()).run_batch(jobs)
        out2 = BatchExecutor(tmp_path / "r2", slow_phase_seconds=0.15,
                             clock=ManualClock()).run_batch(jobs)
        strip = [(o.status, o.engine_used, o.cardinality, o.error) for o in out1]
        assert strip == [(o.status, o.engine_used, o.cardinality, o.error)
                         for o in out2]
        assert [o.status for o in out1] == ["timeout", "done"]
        # On the manual clock even the event logs agree record for record.
        assert read_events(tmp_path / "r1" / "events.jsonl") == read_events(
            tmp_path / "r2" / "events.jsonl")

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

        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        outcomes = ex.run_batch([spec(engine="numpy")])
        counts = summarize_events(read_events(tmp_path / "run" / "events.jsonl"))
        text = batch_report(outcomes, counts)
        assert "1/1 jobs succeeded" in text
        assert "job_done x1" in text
        assert str(outcomes[0].cardinality) in text


def test_checkpoint_files_are_valid_npz(tmp_path):
    BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([spec("a")])
    with np.load(tmp_path / "run" / "checkpoints" / "a.npz") as data:
        assert len(data.files) > 0
