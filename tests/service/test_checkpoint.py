"""Run-directory checkpoint and report-cache semantics."""

import sys
import threading

import numpy as np
import pytest

from repro.core.driver import ms_bfs_graft
from repro.errors import CacheCorruptionError
from repro.graph.generators import random_bipartite
from repro.graph.io import write_matrix_market
from repro.service.checkpoint import RunDirectory
from repro.service.executor import BatchExecutor, ManualClock
from repro.service.jobs import JobSpec

DIGEST = "d" * 16


def make_matching():
    g = random_bipartite(20, 20, 60, seed=0)
    return ms_bfs_graft(g, emit_trace=False).matching


class TestRunDirectory:
    def test_layout_created(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        assert rd.checkpoints.is_dir()
        assert list(rd.checkpoints.iterdir()) == []

    def test_record_and_reload(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        m = make_matching()
        path = rd.record_done("j1", DIGEST, m)
        assert path.name == f"j1.{DIGEST}.npy"
        # A fresh handle (new process on resume) sees the completion.
        loaded = RunDirectory(tmp_path / "run").load_checkpoint("j1", DIGEST, 20, 20)
        assert loaded == m

    def test_checkpoint_is_mates_then_crc(self, tmp_path):
        m = make_matching()
        path = RunDirectory(tmp_path / "run").record_done("j1", DIGEST, m)
        stored = np.load(path)
        assert stored.dtype == np.int64 and stored.shape == (41,)
        assert np.array_equal(stored[:20], m.mate_x)
        assert np.array_equal(stored[20:40], m.mate_y)

    def test_digest_mismatch_ignored(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_done("j1", "old-digest", make_matching())
        with pytest.raises(FileNotFoundError):
            rd.load_checkpoint("j1", "new-digest", 20, 20)

    def test_missing_checkpoint_file_ignored(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_done("j1", DIGEST, make_matching()).unlink()
        with pytest.raises(FileNotFoundError):
            rd.load_checkpoint("j1", DIGEST, 20, 20)

    def test_shape_mismatch_rejected(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_done("j1", DIGEST, make_matching())
        with pytest.raises(CacheCorruptionError):
            rd.load_checkpoint("j1", DIGEST, 20, 21)

    def test_no_tmp_files_left(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_done("j1", DIGEST, make_matching())
        rd.record_report("exp1", "k", "body")
        leftovers = [p for p in (tmp_path / "run").rglob("*.tmp")]
        assert leftovers == []


class TestReportCache:
    def test_miss_then_hit(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        assert rd.cached_report("exp1", "scale=0.2") is None
        rd.record_report("exp1", "scale=0.2", "report body\n")
        assert rd.cached_report("exp1", "scale=0.2") == "report body\n"

    def test_key_change_invalidates(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_report("exp1", "scale=0.2", "body")
        assert rd.cached_report("exp1", "scale=0.4") is None

    def test_survives_reopen(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        rd.record_report("exp1", "k", "body")
        assert RunDirectory(tmp_path / "run").cached_report("exp1", "k") == "body"


def test_concurrent_executors_on_one_run_dir_lose_no_job(tmp_path):
    # Three executors (more than the two cores CI has) share one run
    # directory, each over its own jobs. All open the directory before any
    # finishes a job, so state one kept in memory and rewrote whole would
    # drop the others' completions.
    jobs = []
    for i in range(9):
        path = tmp_path / f"g{i}.mtx"
        write_matrix_market(random_bipartite(40, 40, 160, seed=i), path)
        jobs.append(JobSpec(job_id=f"j{i}", graph={"path": str(path)}))
    shares = [jobs[k::3] for k in range(3)]
    executors = [BatchExecutor(tmp_path / "run", clock=ManualClock()) for _ in shares]
    start = threading.Barrier(len(shares))
    results = {}

    def run(k):
        start.wait(timeout=30)
        results[k] = executors[k].run_batch(shares[k])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(shares))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = {o.spec.job_id: o for k in results for o in results[k]}
    assert sorted(first) == sorted(job.job_id for job in jobs)
    assert {o.status for o in first.values()} == {"done"}
    again = BatchExecutor(tmp_path / "run", clock=ManualClock()).run_batch(jobs)
    assert [o.status for o in again] == ["resumed"] * len(jobs)
    assert [o.cardinality for o in again] == [first[j.job_id].cardinality for j in jobs]
