"""Run-directory layout, completion manifest, and matching checkpoints.

A batch run lives in one directory::

    run_dir/
        manifest.json             # job completion records (atomic rewrite)
        events.jsonl              # structured event log (append-only)
        checkpoints/<job_id>.npz  # certified matching per completed job
        reports/<name>.txt        # report-all stage cache (optional)

The manifest is the resume authority: a job is skipped on resume iff its
manifest entry says ``done``, its spec digest matches, *and* its checkpoint
file loads and re-certifies (``verify_maximum``) against the re-resolved
graph. Anything less falls back to recomputation — resume never trusts
bytes it cannot re-verify.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ServiceError
from repro.graph.serialize import load_matching, save_matching
from repro.matching.base import Matching

_MANIFEST_VERSION = 1


class RunDirectory:
    """Filesystem handle for one batch run's persistent state."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.checkpoints = self.root / "checkpoints"
        self.checkpoints.mkdir(exist_ok=True)
        self.reports = self.root / "reports"
        self.manifest_path = self.root / "manifest.json"
        self.events_path = self.root / "events.jsonl"
        self._manifest = self._load_manifest()

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def _load_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return {"version": _MANIFEST_VERSION, "jobs": {}, "reports": {}}
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            raise ServiceError(
                f"{self.manifest_path}: corrupt manifest ({exc}); "
                f"delete it (checkpoints are re-verified anyway) or use a new run dir"
            ) from exc
        if int(data.get("version", 0)) > _MANIFEST_VERSION:
            raise ServiceError(
                f"{self.manifest_path}: written by a newer service version"
            )
        data.setdefault("jobs", {})
        data.setdefault("reports", {})
        return data

    def _save_manifest(self) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.manifest_path)

    # ------------------------------------------------------------------ #
    # job checkpoints
    # ------------------------------------------------------------------ #

    def checkpoint_path(self, job_id: str) -> Path:
        return self.checkpoints / f"{job_id}.npz"

    def record_done(
        self,
        job_id: str,
        *,
        digest: str,
        matching: Matching,
        cardinality: int,
        engine: Optional[str],
    ) -> Path:
        """Persist a completed job: checkpoint first, then manifest.

        Ordering matters for crash-safety — a manifest entry must never
        point at a checkpoint that was not fully written. Both writes are
        individually atomic (temp + rename).
        """
        path = self.checkpoint_path(job_id)
        save_matching(matching, path)
        self._manifest["jobs"][job_id] = {
            "status": "done",
            "digest": digest,
            "cardinality": int(cardinality),
            "engine": engine,
        }
        self._save_manifest()
        return path

    def completed_entry(self, job_id: str, digest: str) -> Optional[Dict[str, Any]]:
        """The manifest entry if ``job_id`` completed *with the same spec*.

        A digest mismatch means the queue changed under the run directory
        (different graph/algorithm/seed for the same id); the stale entry is
        ignored and the job recomputes.
        """
        entry = self._manifest["jobs"].get(job_id)
        if not entry or entry.get("status") != "done":
            return None
        if entry.get("digest") != digest:
            return None
        if not self.checkpoint_path(job_id).exists():
            return None
        return entry

    def load_checkpoint(self, job_id: str) -> Matching:
        return load_matching(self.checkpoint_path(job_id))

    # ------------------------------------------------------------------ #
    # report-all stage cache
    # ------------------------------------------------------------------ #

    def report_path(self, name: str) -> Path:
        return self.reports / f"{name}.txt"

    def cached_report(self, name: str, key: str) -> Optional[str]:
        """A completed experiment report, iff cached under the same key."""
        entry = self._manifest["reports"].get(name)
        path = self.report_path(name)
        if not entry or entry.get("key") != key or not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    def record_report(self, name: str, key: str, text: str) -> None:
        """Cache one experiment's rendered report (text first, then manifest)."""
        self.reports.mkdir(exist_ok=True)
        path = self.report_path(name)
        tmp = path.with_suffix(".txt.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
        self._manifest["reports"][name] = {"key": key}
        self._save_manifest()
