"""Run-directory manifest and checkpoint semantics."""

import json

import pytest

from repro.core.driver import ms_bfs_graft
from repro.errors import ServiceError
from repro.graph.generators import random_bipartite
from repro.service.checkpoint import RunDirectory


def make_matching():
    g = random_bipartite(20, 20, 60, seed=0)
    return ms_bfs_graft(g, emit_trace=False).matching


class TestRunDirectory:
    def test_layout_created(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        assert rd.checkpoints.is_dir()
        assert not rd.manifest_path.exists()  # lazy: first record writes it

    def test_record_and_reload(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        m = make_matching()
        rd.record_done("j1", digest="d" * 16, matching=m,
                       cardinality=m.cardinality, engine="numpy")
        # A fresh handle (new process on resume) sees the completion.
        rd2 = RunDirectory(tmp_path / "run")
        entry = rd2.completed_entry("j1", "d" * 16)
        assert entry is not None and entry["cardinality"] == m.cardinality
        loaded = rd2.load_checkpoint("j1")
        assert loaded.cardinality == m.cardinality

    def test_digest_mismatch_ignored(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        m = make_matching()
        rd.record_done("j1", digest="old-digest", matching=m,
                       cardinality=m.cardinality, engine=None)
        assert rd.completed_entry("j1", "new-digest") is None

    def test_missing_checkpoint_file_ignored(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        m = make_matching()
        rd.record_done("j1", digest="d", matching=m,
                       cardinality=m.cardinality, engine=None)
        rd.checkpoint_path("j1").unlink()
        assert rd.completed_entry("j1", "d") is None

    def test_corrupt_manifest_raises_with_guidance(self, tmp_path):
        root = tmp_path / "run"
        RunDirectory(root)
        (root / "manifest.json").write_text("{broken")
        with pytest.raises(ServiceError, match="corrupt manifest"):
            RunDirectory(root)

    def test_newer_version_rejected(self, tmp_path):
        root = tmp_path / "run"
        RunDirectory(root)
        (root / "manifest.json").write_text(
            json.dumps({"version": 99, "jobs": {}})
        )
        with pytest.raises(ServiceError, match="newer"):
            RunDirectory(root)

    def test_no_tmp_files_left(self, tmp_path):
        rd = RunDirectory(tmp_path / "run")
        m = make_matching()
        rd.record_done("j1", digest="d", matching=m,
                       cardinality=m.cardinality, engine=None)
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
