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


def checkpoint(run_dir, s):
    return RunDirectory(run_dir).checkpoint_path(s.job_id, s.digest())


def events_of(run_dir, name, after=0):
    """Records named ``name`` from record offset ``after`` on (file order)."""
    return [e for e in read_events(RunDirectory(run_dir).events_path)[after:]
            if e["event"] == name]


def record_count(run_dir):
    return len(read_events(RunDirectory(run_dir).events_path))


class TestHappyPath:
    def test_single_job_done_and_checkpointed(self, tmp_path):
        ex = BatchExecutor(tmp_path / "run", clock=ManualClock())
        [out] = ex.run_batch([spec()])
        assert out.status == "done" and out.succeeded
        assert out.engine_used == "auto"
        assert out.cardinality == expected_cardinality(spec())
        assert checkpoint(tmp_path / "run", spec()).exists()
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
        before = record_count(tmp_path / "run")
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert all(o.status == "resumed" for o in second)
        # Zero recomputation: the second run started no engine.
        assert events_of(tmp_path / "run", ev.JOB_STARTED, after=before) == []
        assert [o.cardinality for o in second] == [o.cardinality for o in first]
        resumed = events_of(tmp_path / "run", ev.JOB_RESUMED)
        assert [e["job"] for e in resumed] == ["a", "b"]
        # The event log reads as one stream across runs: the second run's
        # records follow the first run's, batch_started to batch_done.
        names = [e["event"] for e in read_events(tmp_path / "run" / "events.jsonl")]
        assert names[before] == ev.BATCH_STARTED and names[-1] == ev.BATCH_DONE
        assert names[:before].count(ev.BATCH_DONE) == 1

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
        checkpoint(tmp_path / "run", s).write_bytes(b"not an npy file")
        before = record_count(tmp_path / "run")
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "done"  # recomputed, not resumed
        assert out.cardinality == expected_cardinality(s)
        # One start event for the one engine run, carrying why the
        # checkpoint was not trusted.
        started = events_of(tmp_path / "run", ev.JOB_STARTED, after=before)
        assert len(started) == 1
        assert "checkpoint rejected" in started[0]["note"]

    def test_rejection_note_survives_a_failed_recompute(self, tmp_path):
        # The graph file vanished: the checkpoint cannot be re-certified and
        # the recomputation cannot read the graph; the one event the job
        # gets, job_failed, still says why the checkpoint was not used.
        from repro.graph.generators import random_bipartite
        from repro.graph.io import write_matrix_market

        path = tmp_path / "g.mtx"
        write_matrix_market(random_bipartite(20, 20, 60, seed=0), path)
        s = spec("a", graph={"path": str(path)})
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        path.unlink()
        before = record_count(tmp_path / "run")
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "failed"
        [failed] = events_of(tmp_path / "run", ev.JOB_FAILED, after=before)
        assert failed["stage"] == "resolve-graph"
        assert "checkpoint rejected" in failed["note"]
        assert events_of(tmp_path / "run", ev.JOB_STARTED, after=before) == []

    def test_same_shape_checkpoint_edit_fails_crc_and_recomputes(self, tmp_path):
        # Swap two matched X vertices' mates in place: the file keeps its
        # shape and the mates stay a consistent matching, so only the
        # CRC-32 tells the edit apart.
        s = spec("a")
        [first] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        path = checkpoint(tmp_path / "run", s)
        graph = resolve_graph(s)
        stored = np.load(path)
        mate_x, mate_y = stored[:graph.n_x], stored[graph.n_x:-1]
        x0, x1 = np.flatnonzero(mate_x >= 0)[:2]
        mate_x[[x0, x1]] = mate_x[[x1, x0]]
        mate_y[mate_x[[x0, x1]]] = [x0, x1]
        np.save(path, stored)
        before = record_count(tmp_path / "run")
        [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
        assert out.status == "done"
        assert out.cardinality == first.cardinality
        [started] = events_of(tmp_path / "run", ev.JOB_STARTED, after=before)
        assert "CRC-32" in started["note"]

    def test_spec_change_invalidates_checkpoint(self, tmp_path):
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([spec("a")])
        changed = spec("a", seed=7)  # same id, different computation
        [out] = BatchExecutor(tmp_path / "run",
                              clock=ManualClock()).run_batch([changed])
        assert out.status == "done"
        # The old spec's checkpoint is pruned: one file remains for job a.
        files = sorted((tmp_path / "run" / "checkpoints").iterdir())
        assert files == [checkpoint(tmp_path / "run", changed)]

    def test_spec_change_keeps_dotted_sibling_checkpoints(self, tmp_path):
        # Job ids may contain dots: pruning job a.b's stale checkpoints
        # must not touch a.b.c.<digest>.npy, which belongs to job a.b.c.
        jobs = [spec("a.b"), spec("a.b.c")]
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        changed = spec("a.b", seed=7)
        BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([changed])
        files = sorted((tmp_path / "run" / "checkpoints").iterdir())
        assert files == sorted([checkpoint(tmp_path / "run", changed),
                                checkpoint(tmp_path / "run", jobs[1])])

    def test_old_run_dir_recomputes(self, tmp_path):
        # Run directories from before per-spec .npy checkpoints kept a
        # manifest.json and <job_id>.npz files: nothing reads them, so
        # their jobs recompute.
        s = spec("a")
        run = tmp_path / "run"
        (run / "checkpoints").mkdir(parents=True)
        (run / "checkpoints" / "a.npz").write_bytes(b"old checkpoint")
        (run / "manifest.json").write_text(json.dumps(
            {"version": 1, "reports": {}, "jobs": {"a": {
                "status": "done", "digest": s.digest(),
                "cardinality": 1, "engine": "auto"}}}))
        [out] = BatchExecutor(run, clock=ManualClock()).run_batch([s])
        assert out.status == "done"
        assert out.cardinality == expected_cardinality(s)

    def test_resume_after_faulty_first_run(self, tmp_path):
        # The acceptance drill: a first run under fault injection times one
        # job out; the second run, faults off, recomputes only that job and
        # resumes the other with identical certified results.
        jobs = [spec("a", engine="numpy", deadline_seconds=0.2), spec("b", seed=1)]
        first = BatchExecutor(
            tmp_path / "run", slow_phase_seconds=0.15, clock=ManualClock(),
        ).run_batch(jobs)
        assert [o.status for o in first] == ["timeout", "done"]
        before = record_count(tmp_path / "run")
        second = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
        assert [o.status for o in second] == ["done", "resumed"]
        started = events_of(tmp_path / "run", ev.JOB_STARTED, after=before)
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


def test_checkpoint_files_are_crc_checked_npy(tmp_path):
    import zlib

    s = spec("a")
    [out] = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch([s])
    stored = np.load(checkpoint(tmp_path / "run", s))
    graph = resolve_graph(s)
    assert stored.shape == (graph.n_x + graph.n_y + 1,)
    assert zlib.crc32(stored[:-1]) == stored[-1]
    assert int(np.count_nonzero(stored[:graph.n_x] >= 0)) == out.cardinality
